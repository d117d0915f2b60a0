//! The paper's thirteen tables, each stated once: an id, a title, the
//! run that fills its [`Grid`] and the claims its cells must satisfy
//! (`DESIGN.md` §4 maps each id to its workload; `EXPERIMENTS.md` reads
//! the numbers). Every table is a pure function of the tree, so
//!
//! ```sh
//! exp_tables | diff -u results/paper_tables.txt -
//! ```
//!
//! is the reproduction gate: `diff` holds every cell, the exit status
//! holds every claim. `exp_tables --only E6` prints one table. Run with
//! `--release`.

use std::process::ExitCode;

mod a1;
mod a2;
mod e1;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod f3;
mod f6;
mod grid;
mod location;
mod t1;
mod worlds;

use grid::Grid;

/// One sentence of a table's expected shape and the test that holds it.
pub struct Shape {
    /// The sentence, printed under the table with `ok` or `FAILED`.
    pub claim: &'static str,
    /// Whether the cells satisfy it.
    pub holds: fn(&Grid) -> bool,
}

/// One table of the evaluation.
pub struct Table {
    /// The id `DESIGN.md` §4 and `--only` know it by.
    pub id: &'static str,
    /// First line of its output.
    pub title: &'static str,
    /// Builds the worlds, runs them and returns the cells.
    pub run: fn() -> Grid,
    /// Its expected shape — the only statement of it under `crates/`.
    pub shape: &'static [Shape],
}

/// The tables in the order `results/paper_tables.txt` records them.
const TABLES: &[Table] = &[
    e1::TABLE,
    e2::TABLE,
    e3::TABLE,
    e7::TABLE,
    e4::TABLE,
    e5::TABLE,
    e6::TABLE,
    a1::TABLE,
    a2::TABLE,
    f6::TABLE,
    t1::TABLE,
    f3::TABLE,
    e8::TABLE,
];

/// A table's printed form, claims included, and one `id: claim` line per
/// claim its cells do not satisfy.
fn report(table: &Table, grid: &Grid) -> (String, Vec<String>) {
    let mut text = format!("{}\n{}\n", table.title, grid.render());
    let mut failures = Vec::new();
    for shape in table.shape {
        let ok = (shape.holds)(grid);
        text += &format!(
            "shape {}: {}\n",
            if ok { "ok" } else { "FAILED" },
            shape.claim
        );
        if !ok {
            failures.push(format!("{}: {}", table.id, shape.claim));
        }
    }
    (text, failures)
}

/// The tables the command line asks for: all of them, or `--only ID`.
fn select(args: &[String]) -> Result<Vec<&'static Table>, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let ids = || TABLES.iter().map(|t| t.id).collect::<Vec<_>>().join(" ");
    match args[..] {
        [] => Ok(TABLES.iter().collect()),
        ["--only", id] => match TABLES.iter().find(|t| t.id == id) {
            Some(table) => Ok(vec![table]),
            None => Err(format!("no table {id:?}; the tables are: {}", ids())),
        },
        _ => Err(format!(
            "usage: exp_tables [--only ID], ID one of: {}",
            ids()
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tables = match select(&args) {
        Ok(tables) => tables,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut failures = Vec::new();
    for (i, table) in tables.iter().enumerate() {
        let (text, failed) = report(table, &(table.run)());
        print!("{}{text}", if i > 0 { "\n" } else { "" });
        failures.extend(failed);
    }
    for failure in &failures {
        eprintln!("shape FAILED — {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{rising, Cell, Column, Section};

    fn fixed() -> Grid {
        let mut s = Section::new(&[Column::num("x", 3, 0), Column::num("y", 5, 1)]);
        s.rows = vec![
            vec![Cell::Num(1.0), Cell::Num(2.0)],
            vec![Cell::Num(2.0), Cell::Num(1.5)],
        ];
        Grid::of(s)
    }

    const X_RISES: Shape = Shape {
        claim: "x rises",
        holds: |g| rising(&g.col(0, 0)),
    };
    const Y_RISES: Shape = Shape {
        claim: "y rises",
        holds: |g| rising(&g.col(0, 1)),
    };

    #[test]
    fn a_false_claim_is_reported_with_the_table_id_and_the_claim() {
        let table = Table {
            id: "X9",
            title: "X9: a fixed grid",
            run: fixed,
            shape: &[X_RISES, Y_RISES],
        };
        let (text, failures) = report(&table, &(table.run)());
        assert_eq!(failures, ["X9: y rises"]);
        assert_eq!(
            text,
            "X9: a fixed grid\n\n  x     y\n  1   2.0\n  2   1.5\n\n\
             shape ok: x rises\nshape FAILED: y rises\n"
        );
        let table = Table {
            shape: &[X_RISES],
            ..table
        };
        assert!(report(&table, &fixed()).1.is_empty());
    }

    #[test]
    fn tables_are_the_thirteen_of_design_md_each_with_a_claim() {
        let mut ids: Vec<_> = TABLES.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            ["A1", "A2", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "F3", "F6", "T1"]
        );
        for table in TABLES {
            assert!(table.title.starts_with(&format!("{}: ", table.id)));
            assert!(!table.shape.is_empty(), "{} claims nothing", table.id);
        }
    }

    #[test]
    fn only_selects_one_table_and_an_unknown_id_lists_them_all() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(select(&[]).unwrap().len(), TABLES.len());
        let ids =
            |a: &[&str]| select(&args(a)).map(|ts| ts.iter().map(|t| t.id).collect::<Vec<_>>());
        assert_eq!(ids(&["--only", "E6"]), Ok(vec!["E6"]));
        for bad in [&["--only", "E9"][..], &["--only"], &["--smoke"]] {
            let message = ids(bad).unwrap_err();
            assert!(TABLES.iter().all(|t| message.contains(t.id)), "{message}");
        }
    }
}
