//! Trace reconstruction: rebuild the hierarchical span forest a
//! campaign journaled (`span_start` / `span_end` events) and render it
//! as a flame-style hot-path table plus a per-campaign critical path.
//!
//! The executor opens one `campaign:{name}` root span per campaign,
//! a `scenario` span per work item, and the backends nest their own
//! work under it (`exact_shard` / `exact_merge` / `analytic_shard` for
//! the simulators; `train` / `duty_sim` / `clean_score` per cell and
//! `trial_decode` / `trial_score` per trial for the injector).
//! Every event carries the span's id and its parent's id, so the whole
//! forest reconstructs from the journal alone — including journals
//! appended across `--resume` invocations, because span ids are seeded
//! from the invocation's wall clock.
//!
//! Parsing follows the journal's tolerance contract: unknown event
//! kinds and a missing `"v"` schema-version field are ignored, torn
//! lines are counted in [`Trace::skipped_lines`], and a `span_start`
//! whose parent id never appears is counted as an orphan rather than
//! discarded (it renders as a root).

use std::io::Read;
use std::path::Path;

use serde::{Serialize, Value};

/// One reconstructed span: a labelled interval with an optional parent.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// The journal's span id.
    pub id: u64,
    /// Parent span id; `None` for roots.
    pub parent: Option<u64>,
    /// The span's label (`campaign:fig9`, `scenario`, `exact_shard`, ...).
    pub label: String,
    /// Start time, microseconds since the journal's epoch.
    pub start_us: u64,
    /// End time in microseconds; `None` when the journal holds no
    /// matching `span_end` (crash, or an abort between emit points).
    pub end_us: Option<u64>,
}

impl TraceSpan {
    /// Duration in microseconds; zero-width until ended.
    pub fn duration_us(&self) -> u64 {
        self.end_us
            .map_or(0, |end| end.saturating_sub(self.start_us))
    }
}

/// One row of the aggregated flame table: all spans sharing a label.
#[derive(Debug, Clone, PartialEq)]
pub struct FlameRow {
    /// Span label.
    pub label: String,
    /// How many spans carried it.
    pub count: u64,
    /// Total wall time inside these spans, children included (µs).
    pub cum_us: u64,
    /// Wall time inside these spans minus their children's (µs).
    pub self_us: u64,
}

/// The reconstructed span forest of one journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Every span, in journal order.
    pub spans: Vec<TraceSpan>,
    /// Spans whose `parent` id never appears as a defined span. They
    /// render as roots; a complete journal has zero.
    pub orphans: u64,
    /// Spans with no `span_end` event.
    pub unended: u64,
    /// Journal lines skipped as unparsable.
    pub skipped_lines: u64,
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::Number(n)) => (*n).as_u64(),
        _ => None,
    }
}

fn str_field<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match v.get(key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

/// Parses a journal's text into a [`Trace`], tolerating torn lines and
/// unknown event kinds exactly like `perf::summarize`.
pub fn reconstruct(text: &str) -> Trace {
    let mut out = Trace::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(event) = serde_json::from_str::<Value>(line) else {
            out.skipped_lines += 1;
            continue;
        };
        let Some(kind) = str_field(&event, "ev") else {
            out.skipped_lines += 1;
            continue;
        };
        match kind {
            "span_start" => {
                let (Some(id), Some(label), Some(start_us)) = (
                    u64_field(&event, "span"),
                    str_field(&event, "label"),
                    u64_field(&event, "t_us").or_else(|| {
                        // Fallback for coarser clocks: millisecond
                        // timestamps promote to microseconds.
                        u64_field(&event, "t_ms").map(|ms| ms * 1_000)
                    }),
                ) else {
                    out.skipped_lines += 1;
                    continue;
                };
                out.spans.push(TraceSpan {
                    id,
                    parent: u64_field(&event, "parent"),
                    label: label.to_string(),
                    start_us,
                    end_us: None,
                });
            }
            "span_end" => {
                let (Some(id), Some(end_us)) = (
                    u64_field(&event, "span"),
                    u64_field(&event, "t_us")
                        .or_else(|| u64_field(&event, "t_ms").map(|ms| ms * 1_000)),
                ) else {
                    out.skipped_lines += 1;
                    continue;
                };
                // Ids are unique per invocation; scan from the back so
                // appended re-runs close their own spans first.
                if let Some(span) = out
                    .spans
                    .iter_mut()
                    .rev()
                    .find(|s| s.id == id && s.end_us.is_none())
                {
                    span.end_us = Some(end_us);
                }
            }
            _ => {} // foreign kinds (counters, hist, scenario_done, ...)
        }
    }
    let defined: std::collections::HashSet<u64> = out.spans.iter().map(|s| s.id).collect();
    out.orphans = out
        .spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| !defined.contains(&p)))
        .count() as u64;
    out.unended = out.spans.iter().filter(|s| s.end_us.is_none()).count() as u64;
    out
}

/// Reads and reconstructs a journal file.
///
/// # Errors
///
/// Propagates I/O errors opening or reading `path`.
pub fn load_trace(path: &Path) -> std::io::Result<Trace> {
    let mut text = String::new();
    std::fs::File::open(path)?.read_to_string(&mut text)?;
    Ok(reconstruct(&text))
}

impl Trace {
    /// Whether the journal defined every referenced parent — the
    /// "complete forest" acceptance criterion.
    pub fn is_complete_forest(&self) -> bool {
        self.orphans == 0
    }

    /// Spans treated as roots: explicit roots plus orphans.
    pub fn roots(&self) -> Vec<&TraceSpan> {
        let defined: std::collections::HashSet<u64> = self.spans.iter().map(|s| s.id).collect();
        self.spans
            .iter()
            .filter(|s| s.parent.is_none_or(|p| !defined.contains(&p)))
            .collect()
    }

    /// The aggregated flame table: per label, span count, cumulative
    /// and self wall time, sorted hottest self-time first.
    pub fn flame_table(&self) -> Vec<FlameRow> {
        // Children's cumulative time charged against each parent id.
        let mut child_us: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_us.entry(parent).or_insert(0) += span.duration_us();
            }
        }
        let mut rows: Vec<FlameRow> = Vec::new();
        for span in &self.spans {
            let cum = span.duration_us();
            // A span can report less time than its children sum to
            // (threaded children overlap); self time floors at zero.
            let own = cum.saturating_sub(child_us.get(&span.id).copied().unwrap_or(0));
            match rows.iter_mut().find(|r| r.label == span.label) {
                Some(row) => {
                    row.count += 1;
                    row.cum_us += cum;
                    row.self_us += own;
                }
                None => rows.push(FlameRow {
                    label: span.label.clone(),
                    count: 1,
                    cum_us: cum,
                    self_us: own,
                }),
            }
        }
        rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.label.cmp(&b.label)));
        rows
    }

    /// The critical path of each `campaign:*` root: from the root,
    /// repeatedly descend into the child that finished last, collecting
    /// `(label, duration_us)` hops. A child shorter than 1% of its
    /// longest sibling is bookkeeping, not where the parent's time went
    /// (the `journal_append` after the last scenario finishes after
    /// it), so it never takes a hop.
    pub fn critical_paths(&self) -> Vec<(String, Vec<(String, u64)>)> {
        let mut paths = Vec::new();
        for root in self.roots() {
            if !root.label.starts_with("campaign:") {
                continue;
            }
            let mut path = vec![(root.label.clone(), root.duration_us())];
            let mut cursor = root.id;
            loop {
                let children = || self.spans.iter().filter(move |s| s.parent == Some(cursor));
                let longest = children().map(TraceSpan::duration_us).max().unwrap_or(0);
                let last_child = children()
                    .filter(|s| s.duration_us() * 100 >= longest)
                    .max_by_key(|s| s.end_us.unwrap_or(s.start_us));
                match last_child {
                    Some(child) => {
                        path.push((child.label.clone(), child.duration_us()));
                        cursor = child.id;
                    }
                    None => break,
                }
            }
            paths.push((root.label.clone(), path));
        }
        paths
    }

    /// Human-readable report: forest health, flame table, critical
    /// paths.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("--- Span forest ---\n");
        out.push_str(&format!(
            "{} span(s), {} root(s), {} orphan(s), {} unended, {} line(s) skipped\n",
            self.spans.len(),
            self.roots().len(),
            self.orphans,
            self.unended,
            self.skipped_lines
        ));

        let flame = self.flame_table();
        if !flame.is_empty() {
            out.push_str("\n--- Hot paths (self time) ---\n");
            out.push_str(&format!(
                "{:<20} {:>8} {:>14} {:>14}\n",
                "label", "count", "self ms", "cum ms"
            ));
            for row in &flame {
                out.push_str(&format!(
                    "{:<20} {:>8} {:>14.1} {:>14.1}\n",
                    row.label,
                    row.count,
                    row.self_us as f64 / 1e3,
                    row.cum_us as f64 / 1e3
                ));
            }
        }

        for (campaign, path) in self.critical_paths() {
            out.push_str(&format!("\n--- Critical path: {campaign} ---\n"));
            for (depth, (label, dur)) in path.iter().enumerate() {
                out.push_str(&format!(
                    "{}{label}  {:.1} ms\n",
                    "  ".repeat(depth),
                    *dur as f64 / 1e3
                ));
            }
        }
        out
    }
}

impl Serialize for Trace {
    fn to_value(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let mut pairs = vec![
                    ("id".to_string(), s.id.to_value()),
                    ("label".to_string(), s.label.to_value()),
                    ("start_us".to_string(), s.start_us.to_value()),
                ];
                if let Some(parent) = s.parent {
                    pairs.insert(1, ("parent".to_string(), parent.to_value()));
                }
                if let Some(end) = s.end_us {
                    pairs.push(("end_us".to_string(), end.to_value()));
                }
                Value::Object(pairs)
            })
            .collect();
        let flame: Vec<Value> = self
            .flame_table()
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("label".to_string(), r.label.to_value()),
                    ("count".to_string(), r.count.to_value()),
                    ("self_us".to_string(), r.self_us.to_value()),
                    ("cum_us".to_string(), r.cum_us.to_value()),
                ])
            })
            .collect();
        let critical: Vec<Value> = self
            .critical_paths()
            .iter()
            .map(|(campaign, path)| {
                let hops: Vec<Value> = path
                    .iter()
                    .map(|(label, dur)| {
                        Value::Object(vec![
                            ("label".to_string(), label.to_value()),
                            ("duration_us".to_string(), dur.to_value()),
                        ])
                    })
                    .collect();
                Value::Object(vec![
                    ("campaign".to_string(), campaign.to_value()),
                    ("path".to_string(), Value::Array(hops)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("spans".to_string(), Value::Array(spans)),
            ("orphans".to_string(), self.orphans.to_value()),
            ("unended".to_string(), self.unended.to_value()),
            ("skipped_lines".to_string(), self.skipped_lines.to_value()),
            ("flame".to_string(), Value::Array(flame)),
            ("critical_paths".to_string(), Value::Array(critical)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> String {
        [
            // A campaign with two scenarios; one scenario shards twice
            // and merges, the other never ends (abort). Ids are
            // realistic high-bit values from the wall-clock seed.
            r#"{"ev":"campaign_start","t_ms":0,"name":"fig9","noun":"scenario","pending":2,"workers":2,"budget":2}"#,
            r#"{"ev":"span_start","v":1,"t_ms":0,"span":9000,"label":"campaign:fig9","t_us":100}"#,
            r#"{"ev":"span_start","v":1,"t_ms":1,"span":9001,"parent":9000,"label":"scenario","t_us":200}"#,
            r#"{"ev":"span_start","v":1,"t_ms":1,"span":9002,"parent":9001,"label":"exact_shard","t_us":300}"#,
            r#"{"ev":"span_end","v":1,"t_ms":2,"span":9002,"t_us":1300}"#,
            r#"{"ev":"span_start","v":1,"t_ms":2,"span":9003,"parent":9001,"label":"exact_shard","t_us":1400}"#,
            r#"{"ev":"span_end","v":1,"t_ms":3,"span":9003,"t_us":2400}"#,
            r#"{"ev":"span_start","v":1,"t_ms":3,"span":9004,"parent":9001,"label":"exact_merge","t_us":2500}"#,
            r#"{"ev":"span_end","v":1,"t_ms":3,"span":9004,"t_us":2600}"#,
            r#"{"ev":"span_end","v":1,"t_ms":4,"span":9001,"t_us":2700}"#,
            r#"{"ev":"span_start","v":1,"t_ms":4,"span":9005,"parent":9000,"label":"scenario","t_us":2800}"#,
            r#"{"ev":"span_end","v":1,"t_ms":5,"span":9005,"t_us":5000}"#,
            r#"{"ev":"span_end","v":1,"t_ms":5,"span":9000,"t_us":5100}"#,
            // Journal noise the reconstructor must shrug off.
            r#"{"ev":"counters","t_ms":6,"exact_word_writes":5}"#,
            r#"{"ev":"hologram","v":2,"t_ms":7,"payload":true}"#,
            "torn line that does not pars",
        ]
        .join("\n")
    }

    #[test]
    fn reconstructs_a_complete_forest() {
        let t = reconstruct(&journal());
        assert_eq!(t.spans.len(), 6);
        assert_eq!(t.orphans, 0);
        assert!(t.is_complete_forest());
        assert_eq!(t.unended, 0);
        assert_eq!(t.skipped_lines, 1, "only the torn line");
        assert_eq!(t.roots().len(), 1);
        assert_eq!(t.roots()[0].label, "campaign:fig9");
    }

    #[test]
    fn flame_table_charges_children_against_parents() {
        let t = reconstruct(&journal());
        let flame = t.flame_table();
        let row = |label: &str| flame.iter().find(|r| r.label == label).expect(label);

        // Two shards of 1000us each: all self time.
        assert_eq!(row("exact_shard").count, 2);
        assert_eq!(row("exact_shard").cum_us, 2_000);
        assert_eq!(row("exact_shard").self_us, 2_000);
        // Scenario 9001: 2500us cum, minus 2000 shard + 100 merge.
        // Scenario 9005: 2200us cum, leaf. Totals: 4700 cum, 2600 self.
        assert_eq!(row("scenario").cum_us, 4_700);
        assert_eq!(row("scenario").self_us, 2_600);
        // The campaign root: 5000us cum minus its scenarios' 4700.
        assert_eq!(row("campaign:fig9").self_us, 300);

        // Hottest self-time first.
        assert_eq!(flame[0].label, "scenario");
    }

    #[test]
    fn critical_path_follows_the_last_finisher() {
        let t = reconstruct(&journal());
        let paths = t.critical_paths();
        assert_eq!(paths.len(), 1);
        let (campaign, path) = &paths[0];
        assert_eq!(campaign, "campaign:fig9");
        let labels: Vec<&str> = path.iter().map(|(l, _)| l.as_str()).collect();
        // Scenario 9005 ends last (5000us) → the path descends there.
        assert_eq!(labels, ["campaign:fig9", "scenario"]);
        assert_eq!(path[1].1, 2_200);
    }

    #[test]
    fn critical_path_skips_a_trailing_journal_append() {
        // The store append after the last scenario finishes last, but
        // the path still descends into the scenario it journals.
        let text = [
            r#"{"ev":"span_start","v":1,"span":1,"label":"campaign:fig9","t_us":0}"#,
            r#"{"ev":"span_start","v":1,"span":2,"parent":1,"label":"scenario","t_us":10}"#,
            r#"{"ev":"span_start","v":1,"span":3,"parent":2,"label":"exact_shard","t_us":20}"#,
            r#"{"ev":"span_end","v":1,"span":3,"t_us":9000}"#,
            r#"{"ev":"span_start","v":1,"span":4,"parent":2,"label":"aggregate","t_us":9000}"#,
            r#"{"ev":"span_end","v":1,"span":4,"t_us":9010}"#,
            r#"{"ev":"span_end","v":1,"span":2,"t_us":9020}"#,
            r#"{"ev":"span_start","v":1,"span":5,"parent":1,"label":"journal_append","t_us":9030}"#,
            r#"{"ev":"span_end","v":1,"span":5,"t_us":9040}"#,
            r#"{"ev":"span_end","v":1,"span":1,"t_us":9050}"#,
        ]
        .join("\n");
        let paths = reconstruct(&text).critical_paths();
        let labels: Vec<&str> = paths[0].1.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["campaign:fig9", "scenario", "exact_shard"]);
    }

    #[test]
    fn orphans_and_unended_spans_are_counted_not_dropped() {
        let text = [
            r#"{"ev":"span_start","v":1,"span":1,"parent":999,"label":"scenario","t_us":10}"#,
            r#"{"ev":"span_start","v":1,"span":2,"label":"campaign:x","t_us":20}"#,
        ]
        .join("\n");
        let t = reconstruct(&text);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.orphans, 1);
        assert!(!t.is_complete_forest());
        assert_eq!(t.unended, 2);
        // The orphan renders as a root next to the explicit one.
        assert_eq!(t.roots().len(), 2);
        let text = t.render_text();
        assert!(text.contains("1 orphan(s)"), "{text}");
    }

    #[test]
    fn span_end_without_t_us_falls_back_to_t_ms() {
        let text = [
            r#"{"ev":"span_start","span":5,"label":"campaign:y","t_ms":1}"#,
            r#"{"ev":"span_end","span":5,"t_ms":3}"#,
        ]
        .join("\n");
        let t = reconstruct(&text);
        assert_eq!(t.spans[0].start_us, 1_000);
        assert_eq!(t.spans[0].end_us, Some(3_000));
        assert_eq!(t.skipped_lines, 0);
    }

    #[test]
    fn json_rendering_round_trips_and_carries_the_forest() {
        let t = reconstruct(&journal());
        let text = serde_json::to_string(&t.to_value()).expect("serializes");
        let back: Value = serde_json::from_str(&text).expect("round trips");
        assert_eq!(u64_field(&back, "orphans"), Some(0));
        let Some(Value::Array(spans)) = back.get("spans") else {
            panic!("spans array");
        };
        assert_eq!(spans.len(), 6);
        assert_eq!(str_field(&spans[1], "label"), Some("scenario"));
        assert_eq!(u64_field(&spans[1], "parent"), Some(9_000));
        assert!(matches!(back.get("flame"), Some(Value::Array(_))));
        assert!(matches!(back.get("critical_paths"), Some(Value::Array(_))));
    }
}
