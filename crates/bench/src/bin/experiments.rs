//! CLI regenerating every table and figure of the paper.
//!
//! ```text
//! experiments <name|all> [fast|paper]
//! ```
//!
//! The names are the keys of [`ALL`]; an unknown one prints them.
//! Results print as aligned tables and are archived as JSON under
//! `target/experiments/`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fl_bench::experiments::{ext_adversary, ext_privacy, ext_rounds, fig1, fig2, table1, Scale};
use fl_bench::report::Table;

/// Runs one experiment at a scale and renders its table.
type Experiment = fn(Scale) -> Table;

/// Every experiment by CLI name; `all` runs them in this order.
const ALL: [(&str, Experiment); 6] = [
    ("fig1", |scale| fig1::render(&fig1::run(scale))),
    ("fig2", |scale| fig2::render(&fig2::run(scale))),
    ("table1", |scale| table1::render(&table1::run(scale))),
    ("ext-adversary", |scale| {
        ext_adversary::render(&ext_adversary::run(scale))
    }),
    ("ext-privacy", |scale| {
        ext_privacy::render(&ext_privacy::run(scale))
    }),
    ("ext-rounds", |scale| {
        ext_rounds::render(&ext_rounds::run(scale))
    }),
];

fn usage() -> String {
    let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
    format!("usage: experiments <{}|all> [fast|paper]", names.join("|"))
}

/// The experiment `which` names; an unknown name is the only error.
fn lookup(which: &str) -> Result<Experiment, String> {
    ALL.iter()
        .find(|(name, _)| *name == which)
        .map(|(_, experiment)| *experiment)
        .ok_or_else(|| format!("unknown experiment {which:?}"))
}

fn run_one(which: &str, scale: Scale) -> Result<(), String> {
    let experiment = lookup(which)?;
    let started = Instant::now();
    let table = experiment(scale);
    println!("{}", table.render());
    let artefact = which.replace('-', "_");
    if let Err(e) = table.write_json(&PathBuf::from("target/experiments"), &artefact) {
        eprintln!("warning: could not archive {artefact}.json: {e}");
    }
    eprintln!(
        "[{which} completed in {:.1}s]\n",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let scale = match args.get(1).map(String::as_str) {
        None => Scale::Fast,
        Some(s) => match Scale::parse(s) {
            Some(scale) => scale,
            None => {
                eprintln!("unknown scale {s:?}; use `fast` or `paper`");
                return ExitCode::FAILURE;
            }
        },
    };

    eprintln!("scale: {scale:?} (use `experiments <name> paper` for the full-size runs)\n");
    let result = if which == "all" {
        ALL.iter().try_for_each(|(name, _)| run_one(name, scale))
    } else {
        run_one(which, scale)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_dispatches_and_is_in_the_usage_text() {
        let usage = usage();
        for (name, _) in ALL {
            assert!(lookup(name).is_ok(), "{name} does not dispatch");
            assert!(usage.contains(name), "{name} missing from {usage:?}");
        }
        assert_eq!(
            lookup("fig3").err(),
            Some("unknown experiment \"fig3\"".to_string())
        );
    }
}
