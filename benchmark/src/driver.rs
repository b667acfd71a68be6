//! The driver side: runs each workload as a child process under a
//! wall-clock watchdog, relays its report, and prints the result line.

use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::Ctx;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A run must end within 180 s whatever happens; the watchdog leaves the
/// driver time to report.
const HARD_LIMIT_S: f64 = 170.0;

/// Expected set-up plus fixed work of one child, seconds, on the 2-core
/// development container; the watchdog allows five times this plus the
/// timed phase.
fn expected_s(workload: &str, ctx: &Ctx) -> f64 {
    let fixed = match workload {
        spec::FULL_FRAME => 28.0,
        spec::SIM_FIGURES => 22.0,
        _ => 8.0,
    };
    if ctx.smoke {
        10.0
    } else {
        fixed + ctx.seconds
    }
}

/// What one child reported, as far as it got.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every `metric` line: name → value.
    pub metrics: BTreeMap<String, f64>,
    pub planned: u64,
    pub ops: Option<(u64, u64)>,
    pub failed_checks: Vec<String>,
    pub digest: Option<String>,
    /// The child exited with status 0 before the watchdog fired.
    pub completed: bool,
    pub timed_out: bool,
}

impl Outcome {
    /// `(attempted, failed)`: a child that never reported its operations
    /// failed every one it planned.
    pub fn operations(&self) -> (u64, u64) {
        self.ops
            .unwrap_or((self.planned.max(1), self.planned.max(1)))
    }

    pub fn correct(&self) -> bool {
        self.completed && self.failed_checks.is_empty() && self.operations().1 == 0
    }

    fn absorb(&mut self, line: &str) {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                // `metric <name> <unit> <value> n=<samples>`
                let (name, value) = (words.next(), words.nth(1));
                if let (Some(name), Some(Ok(value))) = (name, value.map(str::parse)) {
                    self.metrics.insert(name.to_string(), value);
                }
            }
            Some("check") if words.next() == Some("FAIL") => {
                self.failed_checks.push(line.to_string());
            }
            Some("plan") => self.planned = field(words.next(), "attempted=").unwrap_or(0),
            Some("ops") => {
                let attempted = field(words.next(), "attempted=");
                let failed = field(words.next(), "failed=");
                self.ops = attempted.zip(failed);
            }
            Some("digest") => self.digest = words.next().map(str::to_string),
            _ => {}
        }
    }
}

fn field(word: Option<&str>, key: &str) -> Option<u64> {
    word?.strip_prefix(key)?.parse().ok()
}

/// Runs `workload` in a child of this executable, echoing its lines, and
/// kills it if it outlives the watchdog.
pub fn run_workload(workload: &str, ctx: &Ctx) -> Outcome {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if ctx.trace { "1" } else { "0" }]);
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn workload child");
    let mut pipe = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        // A killed child closes the pipe; what it wrote so far is the report.
        let _ = pipe.read_to_string(&mut text);
        text
    });

    let limit = (5.0 * expected_s(workload, ctx)).min(HARD_LIMIT_S);
    let started = Instant::now();
    let mut outcome = Outcome::default();
    let status = loop {
        match child.try_wait().expect("poll workload child") {
            Some(status) => break Some(status),
            None if started.elapsed().as_secs_f64() > limit => {
                outcome.timed_out = true;
                // Already-exited is the only failure, and then wait() reaps it.
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader.join().expect("reader thread");
    for line in text.lines() {
        println!("{line}");
        outcome.absorb(line);
    }
    outcome.completed = status.is_some_and(|s| s.success());
    if outcome.timed_out {
        println!("watchdog: {workload} killed after {limit:.0} s; every remaining operation counts as failed");
    } else if !outcome.completed {
        println!("watchdog: {workload} child ended with {status:?}");
    }
    outcome
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every end-to-end
/// metric (tracing off) or every per-layer metric (tracing on; a layer the
/// workload does not exercise reads 0). `Err` names a missing end-to-end
/// metric.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let (attempted, failed) = outcome.operations();
    let mut metrics = Vec::new();
    if trace {
        for m in &PER_LAYER {
            let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
            metrics.push((m.name, m.unit, value));
        }
    } else {
        for m in &END_TO_END {
            let v = outcome
                .metrics
                .get(m.name)
                .ok_or_else(|| format!("end-to-end metric {} was not reported", m.name))?;
            metrics.push((m.name, m.unit, *v));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        body.join(", ")
    ))
}

/// `run`: the named workload, or all four; exit status 0 only if every
/// check passed and every child completed.
pub fn run(workload: Option<&str>, ctx: &Ctx) -> i32 {
    let names: Vec<&str> = match workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut status = 0;
    for name in names {
        println!("## workload {name}");
        let outcome = run_workload(name, ctx);
        match result_line(&outcome, ctx.trace) {
            // A killed or crashed child still gets its line, with what is
            // known of it, and fails the run.
            Ok(line) => {
                if !outcome.correct() {
                    status = 1;
                }
                println!("{line}");
            }
            Err(why) => {
                eprintln!("benchmark: {name}: {why}");
                status = 1;
            }
        }
    }
    status
}

/// How `repeat` compares one metric between the two suite runs.
fn allowed_difference(name: &str) -> f64 {
    // Wall-clock metrics may differ by their bound; everything else printed
    // with tracing off is deterministic in the seed and may not differ.
    match END_TO_END.iter().find(|m| m.name == name) {
        Some(m) if !matches!(m.name, "good_share" | "psnr_db") => m.bound,
        _ => 0.0,
    }
}

/// `repeat`: the suite twice on one seed; prints both values and the
/// relative difference of every metric, and fails if a wall-clock metric
/// differs by more than its bound or an exact metric or digest at all.
pub fn repeat(ctx: &Ctx) -> i32 {
    let ctx = Ctx {
        trace: false,
        ..*ctx
    };
    let mut status = 0;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        println!("## workload {} (first run)", w.name);
        let a = run_workload(w.name, &ctx);
        println!("## workload {} (second run)", w.name);
        let b = run_workload(w.name, &ctx);
        if !(a.correct() && b.correct()) {
            println!("repeat: {} did not run correctly twice", w.name);
            status = 1;
        }
        if a.digest != b.digest {
            println!("repeat: {} digest {:?} vs {:?}", w.name, a.digest, b.digest);
            status = 1;
        }
        for (name, &first) in &a.metrics {
            let Some(&second) = b.metrics.get(name) else {
                println!("repeat: {} reported {name} only once", w.name);
                status = 1;
                continue;
            };
            let diff = if first == second {
                0.0
            } else {
                (second - first).abs() / first.abs().max(f64::MIN_POSITIVE)
            };
            let allowed = allowed_difference(name);
            let ok = diff <= allowed;
            if !ok {
                status = 1;
            }
            rows.push(format!(
                "{:<14} {:<26} {:>16.6} {:>16.6} {:>9.4} {:>7} {}",
                w.name,
                name,
                first,
                second,
                diff,
                if allowed == 0.0 {
                    "exact".to_string()
                } else {
                    format!("{allowed}")
                },
                if ok { "ok" } else { "FAIL" }
            ));
        }
    }
    println!(
        "{:<14} {:<26} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "allowed"
    );
    for row in rows {
        println!("{row}");
    }
    println!("repeat: {}", if status == 0 { "ok" } else { "FAILED" });
    status
}
