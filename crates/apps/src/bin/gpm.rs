//! `gpm` — command-line pattern mining over the simulated cluster.
//!
//! `gpm --help` prints every flag, grouped by the subcommands that take
//! it (the text is `USAGE` in `gpm_apps::cli`).
//!
//! Example: `gpm --gen ba:20000,8 --pattern clique:4 --machines 8`

use gpm_apps::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run with --help for usage");
            std::process::exit(2);
        }
    }
}
