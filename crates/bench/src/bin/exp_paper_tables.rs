//! The paper ledger as markdown: a summary table of every claim with its
//! computed verdict, then each row's detail tables. With no argument the
//! output is `docs/REPRODUCTION.md`; row ids select rows. Exits 1 if any
//! row `FAILS`, 2 on an unknown row id.

use dynareg_bench::ledger::{render, CLAIMS};
use dynareg_bench::Cli;

fn main() {
    let mut cli = Cli::from_env("exp_paper_tables [ROW-ID…]  (rows: E1 … E10)");
    let mut ids = Vec::new();
    while let Some(id) = cli.next_arg() {
        if !CLAIMS.iter().any(|c| c.id.eq_ignore_ascii_case(&id)) {
            cli.fail(&format!("unknown ledger row `{id}`"));
        }
        ids.push(id);
    }
    let (text, worst) = render(&CLAIMS, &ids);
    print!("{text}");
    std::process::exit(worst.exit_code());
}
