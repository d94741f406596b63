//! `gpm` — command-line pattern mining over the simulated cluster.
//!
//! `gpm --help` prints every flag, grouped by the subcommands that take
//! it (the text is `USAGE` in `gpm_apps::cli`). A command line that does
//! not parse exits 2 and points at `--help`; a command that ran and
//! failed — a failed run, a refused file, a regression verdict — exits 1.
//!
//! Example: `gpm --gen ba:20000,8 --pattern clique:4 --machines 8`

use gpm_apps::cli::{self, Error};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(report) => print!("{report}"),
        Err(Error::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!("run with --help for usage");
            std::process::exit(2);
        }
        Err(Error::Failed(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
