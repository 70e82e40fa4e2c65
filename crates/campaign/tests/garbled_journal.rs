//! Garbled-journal robustness: the three JSONL readers never panic on
//! damaged input, and their skip accounting is exact for single-line
//! damage.
//!
//! A real events journal and result store come from one small
//! instrumented sweep. Each case then truncates, byte-flips, drops or
//! duplicates a line, inserts a future-schema (`"v":2`) line, or cuts
//! the file mid-write, and feeds the result to `perf::summarize`,
//! `trace::reconstruct` and `JsonlStore::open`.

use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::OnceLock;

use dnnlife_campaign::grid::{GridAxes, SweepOptions};
use dnnlife_campaign::{perf, trace};
use dnnlife_campaign::{
    run_campaign, CampaignOptions, Instrumentation, ResultStore, ShardPolicy, Telemetry,
};
use dnnlife_core::experiment::{DwellModel, NetworkKind, Platform, PolicySpec, SimulatorBackend};
use dnnlife_quant::NumberFormat;
use proptest::prelude::*;

mod util;

/// A line of an event kind no reader knows, stamped with a future
/// schema version.
const FUTURE_LINE: &str = r#"{"ev":"hologram","v":2,"t_ms":1,"payload":[1,2]}"#;

/// The undamaged `(events journal, result store)` pair and a scratch
/// directory for the damaged store files.
fn fixture() -> &'static (String, String, PathBuf) {
    static FIXTURE: OnceLock<(String, String, PathBuf)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = util::scratch_dir("garbled-journal");
        let grid = GridAxes {
            platforms: vec![Platform::TpuLike],
            networks: vec![NetworkKind::CustomMnist],
            formats: vec![NumberFormat::Int8Symmetric],
            policies: vec![PolicySpec::None, PolicySpec::BarrelShifter],
            lifetimes_years: vec![7.0],
            backends: vec![SimulatorBackend::Analytic, SimulatorBackend::Exact],
            dwells: vec![DwellModel::Uniform],
            repairs: Vec::new(),
            techs: Vec::new(),
            options: SweepOptions {
                base_seed: 42,
                sample_stride: 512,
                inferences: 4,
                ..SweepOptions::default()
            },
        }
        .build("garbled-journal");
        let events = dir.join("sweep.events.jsonl");
        let store = dir.join("sweep.jsonl");
        let telemetry = Telemetry::with_journal(&events).expect("open journal");
        let options = CampaignOptions {
            threads: 2,
            shards: ShardPolicy::Fixed(2),
            instrumentation: Instrumentation {
                telemetry: Some(&telemetry),
                progress: None,
            },
            ..CampaignOptions::default()
        };
        run_campaign(&grid, &store, &options).expect("campaign run");
        drop(telemetry);
        let events = std::fs::read_to_string(events).expect("read journal");
        let store = std::fs::read_to_string(store).expect("read store");
        (events, store, dir)
    })
}

/// The char boundary at or below `at`.
fn boundary(text: &str, mut at: usize) -> usize {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

fn join(lines: &[String]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// One damage to one line (or, for kind 5, a cut of the whole file).
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Keep the first `at` bytes (at least one, never all) of the line.
    Truncate {
        at: usize,
    },
    /// Replace the character at byte `at` with the printable ASCII
    /// byte `with`.
    Flip {
        at: usize,
        with: u8,
    },
    Drop,
    Duplicate,
    /// Insert [`FUTURE_LINE`] before the line.
    InsertFuture,
    /// Cut the file `at` bytes in, as a crash mid-write would.
    Cut {
        at: usize,
    },
}

impl Damage {
    fn pick(kind: usize, at: usize, with: u8) -> Self {
        match kind {
            0 => Damage::Truncate { at },
            1 => Damage::Flip { at, with },
            2 => Damage::Drop,
            3 => Damage::Duplicate,
            4 => Damage::InsertFuture,
            _ => Damage::Cut { at },
        }
    }

    /// Applies the damage to line `index` of `text`; returns the damaged
    /// text and the damaged line (for the line-local checks).
    fn apply(self, text: &str, index: usize) -> (String, Option<String>) {
        let mut lines = lines(text);
        let line = &mut lines[index];
        let damaged = match self {
            Damage::Truncate { at } => {
                line.truncate(boundary(line, 1 + at % (line.len() - 1)));
                Some(line.clone())
            }
            Damage::Flip { at, with } => {
                let at = boundary(line, at % line.len());
                let width = line[at..].chars().next().map_or(1, char::len_utf8);
                line.replace_range(at..at + width, &char::from(with).to_string());
                Some(line.clone())
            }
            Damage::Drop => {
                lines.remove(index);
                None
            }
            Damage::Duplicate => {
                let copy = line.clone();
                lines.insert(index, copy);
                None
            }
            Damage::InsertFuture => {
                lines.insert(index, FUTURE_LINE.to_string());
                None
            }
            Damage::Cut { at } => {
                return (text[..boundary(text, at % text.len())].to_string(), None)
            }
        };
        (join(&lines), damaged)
    }
}

/// Skipped lines of `text` under both event readers.
fn skips(text: &str) -> (u64, u64) {
    (
        perf::summarize(text).skipped_lines,
        trace::reconstruct(text).skipped_lines,
    )
}

/// Opens `text` as a result store file: its record count, or the
/// error kind.
fn open_store(text: &str, name: &str) -> Result<usize, ErrorKind> {
    let path = fixture().2.join(name);
    std::fs::write(&path, text).expect("write damaged store");
    ResultStore::open(path)
        .map(|store| store.len())
        .map_err(|e| e.kind())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-line damage to the events journal: torn lines are skipped
    /// exactly once, dropped, duplicated and future-schema lines never
    /// count as skipped, and a flipped byte changes the skip count only
    /// by what the flipped line alone would count.
    #[test]
    fn events_readers_count_single_line_damage_exactly(
        damage in (0usize..6, 0usize..100_000, 0x20u8..0x7f),
        pick in 0usize..100_000,
    ) {
        let (events, _, _) = fixture();
        prop_assert_eq!(skips(events), (0, 0));
        let index = pick % events.lines().count();
        let damage = Damage::pick(damage.0, damage.1, damage.2);
        let (text, line) = damage.apply(events, index);
        let expected = match damage {
            Damage::Truncate { .. } => (1, 1),
            // The flipped line keeps its newline in the journal.
            Damage::Flip { .. } => skips(&format!("{}\n", line.expect("flipped line"))),
            Damage::Drop | Damage::Duplicate | Damage::InsertFuture => (0, 0),
            Damage::Cut { .. } => {
                // A cut at a line boundary leaves only whole lines; any
                // other cut leaves an unterminated final line, which is
                // torn even when what is left of it parses.
                let torn = !text.is_empty() && !text.ends_with('\n');
                (u64::from(torn), u64::from(torn))
            }
        };
        prop_assert_eq!(skips(&text), expected);
    }

    /// Single-line damage to the result store: a torn or unknown final
    /// line is dropped (the killed-append signature), the same damage
    /// anywhere else is an `InvalidData` error, and a dropped or
    /// duplicated record changes the record count accordingly.
    #[test]
    fn store_open_classifies_single_line_damage(
        damage in (0usize..6, 0usize..100_000, 0x20u8..0x7f),
        pick in 0usize..100_000,
    ) {
        let (_, store, _) = fixture();
        let records = store.lines().count();
        let index = pick % records;
        let last = index == records - 1;
        let damage = Damage::pick(damage.0, damage.1, damage.2);
        let (text, line) = damage.apply(store, index);
        let opened = open_store(&text, "single.jsonl");
        let corrupt = Err(ErrorKind::InvalidData);
        match damage {
            Damage::Truncate { .. } if last => prop_assert_eq!(opened, Ok(records - 1)),
            Damage::Truncate { .. } | Damage::InsertFuture => prop_assert_eq!(opened, corrupt),
            // A flip inside a number of the result can still parse under
            // the same key.
            Damage::Flip { .. } => prop_assert!(
                opened == Ok(records) || opened == corrupt || (last && opened == Ok(records - 1)),
                "{:?} after flipping to {:?}", opened, line
            ),
            Damage::Drop => prop_assert_eq!(opened, Ok(records - 1)),
            Damage::Duplicate => prop_assert_eq!(opened, Ok(records)),
            Damage::Cut { .. } => prop_assert_eq!(opened, Ok(text.matches('\n').count())),
        }
    }

    /// Several damages at once: nothing panics, and no reader skips more
    /// lines than the text holds.
    #[test]
    fn readers_survive_compound_damage(
        damages in prop::collection::vec(((0usize..6, 0usize..100_000), (0x20u8..0x7f, 0usize..100_000)), 1..6),
    ) {
        let (events, store, _) = fixture();
        for original in [events, store] {
            let mut text = original.clone();
            for &((kind, at), (with, pick)) in &damages {
                let count = text.lines().count();
                if count == 0 || text.lines().any(|l| l.len() < 2) {
                    break;
                }
                text = Damage::pick(kind, at, with).apply(&text, pick % count).0;
            }
            let lines = text.lines().count() as u64;
            let (summarized, reconstructed) = skips(&text);
            prop_assert!(summarized <= lines && reconstructed <= lines);
            if let Ok(records) = open_store(&text, "compound.jsonl") {
                prop_assert!(records as u64 <= lines);
            }
        }
    }
}

/// A cut exactly one byte before a `\n` leaves a final line that is
/// whole JSON without its newline. All three readers treat it as a torn
/// write: the event readers skip it once, the store keeps only the
/// records before it. Every line boundary of both fixtures is cut.
#[test]
fn a_cut_just_before_a_newline_is_a_torn_line_for_every_reader() {
    let (events, store, _) = fixture();
    for (at, _) in events.match_indices('\n') {
        let cut = &events[..at];
        assert!(
            serde_json::from_str::<serde::Value>(&cut[cut.rfind('\n').map_or(0, |n| n + 1)..])
                .is_ok(),
            "the cut-off line parses"
        );
        assert_eq!(skips(cut), (1, 1), "events cut at byte {at}");
    }
    for (records, (at, _)) in store.match_indices('\n').enumerate() {
        assert_eq!(
            open_store(&store[..at], "cut.jsonl"),
            Ok(records),
            "store cut at byte {at}"
        );
    }
}
