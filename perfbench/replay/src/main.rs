//! Per-layer replay of one benchmark workload.
//!
//! Runs the scenarios (or injection cells) that one `dnnlife` CLI
//! workload runs, on one thread, by calling each crate's public entry
//! points directly and timing every call from here — the program under
//! test gains no spans. Each replayed scenario or cell must reproduce
//! the CLI's store line for the same spec byte for byte, and the store
//! the replay journals must equal the CLI's store; any difference is a
//! fidelity failure (exit 1).
//!
//! ```text
//! replay --workload fig9-exact|fig11-analytic|inject-mnist --seed N \
//!        --store CLI_STORE.jsonl --work SCRATCH_DIR
//! ```
//!
//! Prints one JSON object of per-layer metrics on stdout.

mod inject;
mod macs;
mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dnnlife_campaign::{JsonlStore, StoreRecord};

/// Per-layer metrics by name, in milliseconds, counts or rates.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Adds `value` to metric `name` (created at 0).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// The current value of `name` (0 if never added).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f`, adding its wall time in milliseconds to `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value:?}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `count / ms` as a per-second rate (0 when nothing was timed).
pub fn per_second(count: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        count / (ms / 1e3)
    } else {
        0.0
    }
}

/// The CLI store's lines keyed by record key.
pub fn store_lines<R: StoreRecord>(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read CLI store {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let record: R = serde_json::from_str(line)
                .map_err(|e| format!("{}: unparsable line: {e}", path.display()))?;
            Ok((record.key().to_string(), line.to_string()))
        })
        .collect()
}

/// Checks that `record` serializes to exactly the CLI's line for its key.
pub fn check_record<R: StoreRecord>(
    record: &R,
    cli: &BTreeMap<String, String>,
    label: &str,
) -> Result<(), String> {
    let line = serde_json::to_string(record).map_err(|e| format!("{label}: {e}"))?;
    match cli.get(record.key()) {
        Some(expected) if *expected == line => Ok(()),
        Some(_) => Err(format!(
            "{label}: replayed record differs from the CLI store line"
        )),
        None => Err(format!(
            "{label}: key {} missing from the CLI store",
            record.key()
        )),
    }
}

/// Journals `records` into a fresh store under `work`, timing every
/// `append` and the `finalize`, and checks the finished file equals the
/// CLI's store byte for byte.
pub fn replay_store<R: StoreRecord>(
    records: Vec<R>,
    keys: &[String],
    work: &Path,
    cli_store: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let path = work.join("replay.jsonl");
    let _ = std::fs::remove_file(&path);
    let io = |e: std::io::Error| format!("replay store {}: {e}", path.display());
    let mut store = JsonlStore::<R>::open(&path).map_err(io)?;
    for record in records {
        m.time("campaign.store.append.ms", || store.append(record))
            .map_err(io)?;
    }
    m.time("campaign.store.finalize.ms", || store.finalize(keys))
        .map_err(io)?;
    let ours = std::fs::read(&path).map_err(io)?;
    let theirs = std::fs::read(cli_store).map_err(io)?;
    m.add("campaign.store.bytes", ours.len() as f64);
    if ours != theirs {
        return Err("the replayed store differs from the CLI's store".to_string());
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    store: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut store = None;
    let mut work = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--store" => store = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        store: store.ok_or("--store is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn run(args: &Args) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    match args.workload.as_str() {
        "fig9-exact" => sweep::replay(&sweep::FIG9_EXACT, args, &mut m)?,
        "fig11-analytic" => sweep::replay(&sweep::FIG11_ANALYTIC, args, &mut m)?,
        "inject-mnist" => inject::replay(args, &mut m)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(m)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(m) => {
            println!("{}", m.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay: {e}");
            ExitCode::FAILURE
        }
    }
}
