//! The `vadalog` binary: reads the environment once ([`resolve_env`]) and
//! runs [`run_cli_with`] under it.

use vadalog_cli::{resolve_env, run_cli_with, CliError};
use vadalog_engine::ReasonerOptions;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result =
        resolve_env(ReasonerOptions::default(), |var| std::env::var(var).ok()).and_then(|env| {
            if !env.faults.is_empty() {
                // Armed for the process lifetime: the guard is leaked.
                std::mem::forget(vadalog_fault::Scenario::arm_rules(env.faults));
            }
            run_cli_with(&args, env.options)
        });
    match result {
        Ok(text) => print!("{text}"),
        Err(e) => {
            if let CliError::Truncated { output, .. } = &e {
                // A capped run still prints what it derived.
                print!("{output}");
                eprintln!("warning: {e}");
                std::process::exit(3);
            }
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
