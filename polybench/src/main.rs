//! The `polybench` command line: `run`, `compare`, `aa`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use polybench::compare::{aa, compare, exit_code, load_results, print_rows, AaArgs};
use polybench::metrics::{END_TO_END, WORKLOADS};
use polybench::run::{self, RunArgs};

const USAGE: &str = "\
usage: polybench run [--seed N] [--workload W] [--out DIR] [--trace 0|1] [--quick]
       polybench compare A B
       polybench aa --runs N [--seed N] [--workload W]... [--out DIR]

run      measures one workload (all five, one process each, without --workload),
         prints every metric by name with its unit and, last, the result object
compare  A and B are results.jsonl files or directories written by run --out;
         exit 1 if a metric REGRESSED, 2 if one is UNRESOLVED
aa       runs this build as two interleaved sets and compares them";

/// `--name value` pairs and bare flags, in order.
struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    fn number(&mut self, flag: &str) -> Result<u64, String> {
        let text = self.value(flag)?;
        text.parse()
            .map_err(|_| format!("{flag} takes a whole number, not {text:?}"))
    }
}

fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn cmd_run(mut args: Args) -> Result<ExitCode, String> {
    let mut run_args = RunArgs {
        seed: 2019,
        workload: String::new(),
        out: default_out(),
        trace: false,
        quick: false,
    };
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--seed" => run_args.seed = args.number("--seed")?,
            "--workload" => run_args.workload = args.value("--workload")?,
            "--out" => run_args.out = args.value("--out")?.into(),
            "--trace" => run_args.trace = args.number("--trace")? != 0,
            // The acceptance driver passes it with every run. Op lists
            // and pass counts are constants, so there is nothing it
            // could set: checked and ignored.
            "--seconds" => drop(args.number("--seconds")?),
            "--quick" => run_args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if run_args.workload.is_empty() {
        return run_all(&run_args);
    }
    let result = run::run(&run_args).map_err(|e| e.to_string())?;
    run::print(&run_args, &result);
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload in a process of its own, so that set-up time and peak
/// memory are each workload's alone.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for def in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", def.name, "--seed"])
            .arg(args.seed.to_string())
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_ok &= status.success();
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: Args) -> Result<ExitCode, String> {
    let sets: Vec<PathBuf> = args.0.map(PathBuf::from).collect();
    let [a, b] = sets.as_slice() else {
        return Err("compare takes exactly two result sets".into());
    };
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let rows = compare(END_TO_END, &workloads, &load_results(a)?, &load_results(b)?);
    print_rows(&rows);
    Ok(ExitCode::from(exit_code(&rows) as u8))
}

fn cmd_aa(mut args: Args) -> Result<ExitCode, String> {
    let mut aa_args = AaArgs {
        runs: 0,
        seed: 2019,
        workloads: Vec::new(),
        out: default_out(),
    };
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--runs" => aa_args.runs = args.number("--runs")?,
            "--seed" => aa_args.seed = args.number("--seed")?,
            "--workload" => aa_args.workloads.push(args.value("--workload")?),
            "--out" => aa_args.out = args.value("--out")?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if aa_args.runs == 0 {
        return Err("aa needs --runs N with N at least 1".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let rows = aa(&exe, &aa_args)?;
    print_rows(&rows);
    Ok(ExitCode::from(exit_code(&rows) as u8))
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv.into_iter());
    let outcome = match command.as_str() {
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        "aa" => cmd_aa(args),
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("polybench: {message}");
        ExitCode::from(3)
    })
}
