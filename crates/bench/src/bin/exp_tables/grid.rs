//! The one form every paper table takes — captioned sections of
//! fixed-width columns — with the formatter that prints it, the per-seed
//! aggregation that fills it and the series tests its claims are built
//! from. A cell keeps its number, so a claim reads what the table shows.

/// One value of a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A number, printed at its column's precision; NaN when nothing was
    /// measured (it prints as `NaN` and fails every comparison).
    Num(f64),
    /// A mean followed by a one-character slot: `!` when some of the runs
    /// behind it missed, blank otherwise.
    Flagged(f64, bool),
    /// Words where a number would stand (`miss`, `OK`), or a row label.
    Text(String),
    /// Words that replace every remaining column of the row, set one
    /// blank further right so they do not read as the next column's value.
    Rest(&'static str),
}

impl Cell {
    /// A [`Cell::Text`] from a borrowed string.
    pub fn text(s: &str) -> Cell {
        Cell::Text(s.to_owned())
    }

    /// The cell's number; NaN for words.
    pub fn value(&self) -> f64 {
        match self {
            Cell::Num(v) | Cell::Flagged(v, _) => *v,
            Cell::Text(_) | Cell::Rest(_) => f64::NAN,
        }
    }
}

/// Header and number format of one column.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    name: &'static str,
    width: usize,
    precision: usize,
    left: bool,
    unit: &'static str,
}

impl Column {
    /// A right-aligned column printing numbers with `precision` decimals.
    pub const fn num(name: &'static str, width: usize, precision: usize) -> Column {
        Column {
            name,
            width,
            precision,
            left: false,
            unit: "",
        }
    }

    /// A left-aligned column of row labels.
    pub const fn label(name: &'static str, width: usize) -> Column {
        Column {
            left: true,
            ..Column::num(name, width, 0)
        }
    }

    /// Appends `unit` to every number of the column.
    pub const fn unit(self, unit: &'static str) -> Column {
        Column { unit, ..self }
    }

    fn pad(&self, s: &str) -> String {
        if self.left {
            format!("{s:<w$}", w = self.width)
        } else {
            format!("{s:>w$}", w = self.width)
        }
    }

    fn render(&self, cell: &Cell) -> String {
        let p = self.precision;
        match cell {
            Cell::Num(v) => self.pad(&format!("{v:.p$}{}", self.unit)),
            Cell::Flagged(v, missed) => {
                self.pad(&format!("{v:.p$}{}", if *missed { '!' } else { ' ' }))
            }
            Cell::Text(s) => self.pad(s),
            Cell::Rest(s) => format!(" {s}"),
        }
    }
}

/// One captioned block of rows under one header.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Line above the header (`-- vs hop count --`).
    pub caption: Option<&'static str>,
    /// The columns; a section whose column names are all empty prints no
    /// header line.
    pub columns: Vec<Column>,
    /// A second header line (units, how to read a flag), printed as is.
    pub legend: Option<String>,
    /// The rows, each at most `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
}

impl Section {
    /// A section with these columns and no rows yet.
    pub fn new(columns: &[Column]) -> Section {
        Section {
            columns: columns.to_vec(),
            ..Section::default()
        }
    }

    fn line(&self, cells: impl Iterator<Item = String>) -> String {
        let line = cells.collect::<Vec<_>>().join(" ");
        format!("{}\n", line.trim_end())
    }

    fn render(&self, out: &mut String) {
        out.extend(self.caption.map(|c| format!("{c}\n")));
        if self.columns.iter().any(|c| !c.name.is_empty()) {
            *out += &self.line(self.columns.iter().map(|c| c.pad(c.name)));
        }
        out.extend(self.legend.iter().map(|l| format!("{l}\n")));
        for row in &self.rows {
            *out += &self.line(self.columns.iter().zip(row).map(|(c, cell)| c.render(cell)));
        }
    }
}

/// What a table's `run` returns: everything printed under its title.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    /// A line directly under the title.
    pub subtitle: Option<String>,
    /// The sections, each printed after a blank line.
    pub sections: Vec<Section>,
    /// Context printed under the last section: the paper's own numbers,
    /// derived readings. Not cells, and not claims.
    pub notes: Vec<String>,
}

impl Grid {
    /// A grid of one section.
    pub fn of(section: Section) -> Grid {
        Grid {
            sections: vec![section],
            ..Grid::default()
        }
    }

    /// The numbers of one column, top to bottom (NaN where a cell holds
    /// words or its row ends early).
    pub fn col(&self, section: usize, column: usize) -> Vec<f64> {
        self.sections[section]
            .rows
            .iter()
            .map(|row| row.get(column).map_or(f64::NAN, Cell::value))
            .collect()
    }

    /// Whether `column` holds the largest number of every row of the
    /// section, the sweep value in column 0 aside. A row with a cell of
    /// words has no largest number.
    pub fn tops_every_row(&self, section: usize, column: usize) -> bool {
        let mut rows = self.sections[section].rows.iter();
        rows.all(|row| row[1..].iter().all(|c| c.value() <= row[column].value()))
    }

    /// The text printed under the table's title.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.extend(self.subtitle.iter().map(|s| format!("{s}\n")));
        for section in &self.sections {
            out.push('\n');
            section.render(&mut out);
        }
        if !self.notes.is_empty() {
            out.push('\n');
            out.extend(self.notes.iter().map(|n| format!("{n}\n")));
        }
        out
    }
}

/// Column-wise mean of `run(seed)` over the seeds that produced a sample
/// (NaN when none did), and the number of seeds that produced none.
pub fn seed_mean<const N: usize>(
    seeds: &[u64],
    run: impl Fn(u64) -> Option<[f64; N]>,
) -> ([f64; N], usize) {
    let samples: Vec<[f64; N]> = seeds.iter().filter_map(|&seed| run(seed)).collect();
    let column = |j: usize| samples.iter().map(|s| s[j]).collect::<Vec<_>>();
    let mean = std::array::from_fn(|j| siphoc_bench::mean(&column(j)).unwrap_or(f64::NAN));
    (mean, seeds.len() - samples.len())
}

/// Each value is above the one before it.
pub fn rising(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// Each value is below the one before it.
pub fn falling(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] > w[1])
}

/// Every value equals the first.
pub fn flat(xs: &[f64]) -> bool {
    xs.iter().all(|x| *x == xs[0])
}

/// Every value lies in `lo..=hi` (a NaN lies nowhere).
pub fn within(xs: &[f64], lo: f64, hi: f64) -> bool {
    xs.iter().all(|x| (lo..=hi).contains(x))
}

/// Mean step between neighbours: (last − first) / (n − 1).
pub fn slope(xs: &[f64]) -> f64 {
    (xs[xs.len() - 1] - xs[0]) / (xs.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The widths E2 and E6 print at: a missing mean, a flagged mean, a
    /// `miss` in a number column, and E6's saturated row.
    #[test]
    fn formatter_keeps_the_cell_forms_of_e2_and_e6() {
        let mut e2 = Section::new(&[Column::num("nodes", 7, 0), Column::num("std", 16, 2)]);
        e2.legend = Some("        (legend)".to_owned());
        e2.rows = vec![
            vec![Cell::Num(4.0), Cell::Flagged(1.318, false)],
            vec![Cell::Num(9.0), Cell::Flagged(5.2, true)],
            vec![Cell::Num(16.0), Cell::text("miss")],
            vec![Cell::Num(25.0), Cell::Num(f64::NAN)],
        ];
        let mut e6 = Section::new(&[
            Column::num("streams", 8, 0),
            Column::num("loss(%)", 9, 2),
            Column::num("MOS", 7, 2),
        ]);
        e6.caption = Some("-- caption --");
        e6.rows = vec![
            vec![Cell::Num(3.0), Cell::Num(0.0), Cell::Num(4.376)],
            vec![Cell::Num(4.0), Cell::Rest("call setup failed (saturated)")],
        ];
        let grid = Grid {
            subtitle: None,
            sections: vec![e2, e6],
            notes: vec!["a note".to_owned()],
        };
        assert_eq!(
            grid.render(),
            "\n  nodes              std\n        (legend)\n\
             \x20     4            1.32\n\
             \x20     9            5.20!\n\
             \x20    16             miss\n\
             \x20    25              NaN\n\
             \n-- caption --\n streams   loss(%)     MOS\n\
             \x20      3      0.00    4.38\n\
             \x20      4  call setup failed (saturated)\n\
             \na note\n"
        );
        assert_eq!(grid.col(0, 1)[..2], [1.318, 5.2]);
        assert!(grid.col(0, 1)[2].is_nan() && grid.col(1, 2)[1].is_nan());
    }

    #[test]
    fn labels_pad_left_units_follow_numbers_and_unnamed_columns_print_no_header() {
        let mut s = Section::new(&[Column::label("", 6), Column::num("", 10, 3).unit("s")]);
        s.rows = vec![vec![Cell::text("ab"), Cell::Num(2.0)]];
        assert_eq!(Grid::of(s).render(), "\nab         2.000s\n");
    }

    #[test]
    fn seed_mean_averages_the_samples_it_got_and_counts_the_rest() {
        let run = |s: u64| (s != 3).then_some([s as f64, 10.0 * s as f64]);
        assert_eq!(seed_mean(&[1, 2, 3, 4], run), ([7.0 / 3.0, 70.0 / 3.0], 1));
        let (none, missed) = seed_mean(&[1, 2], |_| None::<[f64; 1]>);
        assert!(none[0].is_nan() && missed == 2);
    }

    #[test]
    fn tops_every_row_skips_the_sweep_column_and_rejects_words() {
        let mut grid = Grid::of(Section {
            rows: vec![
                vec![Cell::Num(25.0), Cell::Num(1.0), Cell::Num(3.0)],
                vec![Cell::Num(4.0), Cell::Num(2.0), Cell::Num(2.0)],
            ],
            ..Section::default()
        });
        assert!(grid.tops_every_row(0, 2) && !grid.tops_every_row(0, 1));
        grid.sections[0].rows[0][1] = Cell::text("miss");
        assert!(!grid.tops_every_row(0, 2));
    }

    #[test]
    fn series_tests_reject_ties_and_nan() {
        assert!(rising(&[1.0, 2.0, 3.0]) && !rising(&[1.0, 1.0]) && !rising(&[1.0, f64::NAN]));
        assert!(falling(&[3.0, 2.0]) && !falling(&[2.0, 2.0]) && !falling(&[f64::NAN, 1.0]));
        assert!(within(&[0.0, 5.0], 0.0, 5.0) && !within(&[f64::NAN], 0.0, 5.0));
        assert!(flat(&[6.0, 6.0]) && !flat(&[6.0, 6.1]) && !flat(&[f64::NAN]));
        assert_eq!(slope(&[1.0, 9.0, 5.0]), 2.0);
    }
}
