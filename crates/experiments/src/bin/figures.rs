//! `figures [id …]` — reproduces the named figures (none = all, in paper
//! order): prints each, writes `results/<id>.json` (a full run also
//! `results/fidelity.json`), and exits 1 when a claim is outside its band or
//! a result could not be written, 2 on an unknown id.

use cicero_experiments::figures::FIGURES;
use cicero_experiments::{write_json, Claim, Lab};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let known = |id: &String| FIGURES.iter().any(|(known, _)| known == id);
    if let Some(unknown) = ids.iter().find(|id| !known(id)) {
        let all: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        eprintln!("figures: unknown figure `{unknown}`");
        eprintln!("usage: figures [id …]   (none = all of: {})", all.join(" "));
        return ExitCode::from(2);
    }
    let chosen = |id: &str| ids.is_empty() || ids.iter().any(|want| want == id);

    let (lab, results) = (Lab::default(), Path::new("results"));
    let mut claims: Vec<Claim> = Vec::new();
    for (_, run) in FIGURES.iter().filter(|(id, _)| chosen(id)) {
        let figure = run(&lab);
        print!("{figure}");
        match figure.write(results) {
            Ok(path) => println!("  [results written to {}]", path.display()),
            Err(e) => return failed(e),
        }
        claims.extend(figure.claims);
    }
    if ids.is_empty() {
        if let Err(e) = write_json(results, "fidelity", &claims) {
            return failed(e);
        }
    }

    println!("{}", lab.summary());
    let out: Vec<&Claim> = claims.iter().filter(|c| !c.in_band()).collect();
    println!(
        "fidelity: {} claims, {} outside their band",
        claims.len(),
        out.len()
    );
    for c in &out {
        let (band, measured) = (c.band, &c.measured.text);
        println!(
            "  {}: {} — {band:?}, measured {measured}",
            c.figure, c.label
        );
    }
    ExitCode::from(!out.is_empty() as u8)
}

/// A result that could not be written fails the run: nothing may `cmp` a
/// stale file afterwards.
fn failed(e: std::io::Error) -> ExitCode {
    eprintln!("figures: {e}");
    ExitCode::FAILURE
}
