//! The paper's claims, checked against the CSVs the binary writes.
//!
//! A [`Claim`] hangs on its figure's row of [`crate::figures::FIGURES`]:
//! the paper's value, a class, a comparison and a statistic — data naming
//! the output columns it reads, which the table's tests hold to the
//! outputs' declared columns. [`evaluate`] skips a claim whose CSVs are
//! absent, as `--plot` skips a chart.

use std::path::Path;

use crate::csvout::{f, Csv};
use crate::figures::FIGURES;

/// How far a claim is expected to reproduce (the `class` column).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Class {
    /// The paper's value within the tolerance, or the ordering it states.
    Reproduced,
    /// A direction, not a size: the paper's is not matched, or not stated.
    DirectionOnly,
    /// Expected to miss the paper's value; EXPERIMENTS.md says why.
    KnownDeviation,
}

/// How the cells a [`Read`] selects, in file order, become one number. An
/// empty selection or a `NaN` cell (a failed point) yields `NaN`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fold {
    /// The cell of the one selected row.
    One,
    /// The largest cell.
    Max,
    /// The smallest cell.
    Min,
    /// The mean of the second half: a per-millisecond series' steady state.
    Steady,
    /// The largest increase from a row to the next (0: never rises).
    Rise,
    /// The largest decrease from a row to the next (0: never falls).
    Fall,
}

/// `(column, value)` pairs a row must match; a value `a|b` matches either.
pub(crate) type Key = &'static [(&'static str, &'static str)];

/// One column of the rows of an output that match a key, folded.
#[derive(Debug)]
pub(crate) struct Read {
    /// The output's stem.
    pub(crate) stem: &'static str,
    /// Which rows.
    pub(crate) key: Key,
    /// Which column.
    pub(crate) column: &'static str,
    /// How its cells become one number.
    pub(crate) fold: Fold,
}

impl Read {
    /// This read over `csv`, a table of the output `stem` names.
    pub(crate) fn fold(&self, csv: &Csv) -> f64 {
        let col = |name: &str| csv.header().iter().position(|h| h == name);
        let key: Option<Vec<(usize, &str)>> =
            self.key.iter().map(|&(c, v)| Some((col(c)?, v))).collect();
        let (Some(key), Some(y)) = (key, col(self.column)) else {
            return f64::NAN;
        };
        let values: Vec<f64> = csv
            .rows()
            .iter()
            .filter(|row| key.iter().all(|&(i, v)| v.split('|').any(|v| v == row[i])))
            .map(|row| row[y].parse().unwrap_or(f64::NAN))
            .collect();
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return f64::NAN;
        }
        let steps = || values.windows(2).map(|w| w[1] - w[0]);
        match self.fold {
            Fold::One if values.len() == 1 => values[0],
            Fold::One => f64::NAN,
            Fold::Max => values.iter().copied().fold(f64::MIN, f64::max),
            Fold::Min => values.iter().copied().fold(f64::MAX, f64::min),
            Fold::Steady => {
                let tail = &values[values.len() / 2..];
                tail.iter().sum::<f64>() / tail.len() as f64
            }
            Fold::Rise => steps().fold(0.0, f64::max),
            Fold::Fall => steps().fold(0.0, |m, s| m.max(-s)),
        }
    }
}

/// What a claim measures.
#[derive(Debug)]
pub(crate) enum Stat {
    /// One folded column.
    Of(Read),
    /// The first over the second.
    Ratio([Read; 2]),
    /// The first plus the second.
    Sum([Read; 2]),
}

impl Stat {
    /// The reads it is made of.
    #[cfg(test)]
    pub(crate) fn reads(&self) -> &[Read] {
        match self {
            Stat::Of(read) => std::slice::from_ref(read),
            Stat::Ratio(pair) | Stat::Sum(pair) => pair,
        }
    }

    /// Its value over the tables in `dir`; `None` if one is absent.
    fn measure(&self, dir: &Path) -> Option<f64> {
        let fold = |r: &Read| Some(r.fold(&Csv::read(dir, r.stem)?));
        Some(match self {
            Stat::Of(read) => fold(read)?,
            Stat::Ratio([a, b]) => fold(a)? / fold(b)?,
            Stat::Sum([a, b]) => fold(a)? + fold(b)?,
        })
    }
}

/// When a measured value agrees with the paper: a bound and the tolerance
/// allowed around it. Never for `NaN`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cmp {
    /// `measured <= bound + tolerance`.
    AtMost(f64, f64),
    /// `measured >= bound - tolerance`.
    AtLeast(f64, f64),
    /// `|measured - value| <= tolerance`.
    Near(f64, f64),
}

impl Cmp {
    fn holds(self, m: f64) -> bool {
        match self {
            Cmp::AtMost(bound, tol) => m <= bound + tol,
            Cmp::AtLeast(bound, tol) => m >= bound - tol,
            Cmp::Near(value, tol) => (m - value).abs() <= tol,
        }
    }
}

/// One claim of the paper about a figure.
#[derive(Debug)]
pub struct Claim {
    /// Its name within the figure.
    pub(crate) id: &'static str,
    /// The paper's value, as text.
    pub(crate) paper: &'static str,
    /// How far it is expected to reproduce.
    pub(crate) class: Class,
    /// When the measurement agrees.
    pub(crate) cmp: Cmp,
    /// What is measured.
    pub(crate) stat: Stat,
}

/// Every claim of the figure table whose CSVs are all in `dir`, in table
/// order, with its measured value and whether it agrees with the paper.
pub fn evaluate(dir: &Path) -> Csv {
    let mut csv = Csv::new(&["figure", "claim", "paper", "measured", "holds", "class"]);
    for figure in FIGURES {
        for claim in figure.claims {
            let Some(m) = claim.stat.measure(dir) else {
                continue;
            };
            let holds = if claim.cmp.holds(m) { "yes" } else { "no" };
            let class = format!("{:?}", claim.class);
            let cells = [figure.name, claim.id, claim.paper, &f(m), holds, &class];
            csv.row(cells.map(str::to_string));
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    // The folds are exact over these hand-written cells.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn fold(key: Key, fold: Fold, text: &str) -> f64 {
        let (stem, column) = ("t", "y");
        let read = Read {
            stem,
            key,
            column,
            fold,
        };
        read.fold(&Csv::parse(Path::new("t.csv"), text))
    }

    /// Keys select rows in file order (no row, two rows for `One`, or a key
    /// column the table lacks: `NaN`), and a failed point's `NaN` poisons
    /// every fold that sees it — `f64::max` alone would skip it — so no
    /// comparison holds.
    #[test]
    fn folds_select_by_key_and_keep_nan() {
        let t = "s,x,y\na,0,4\na,1,1\nb,0,3\nb,1,5\n";
        assert_eq!(fold(&[("s", "b"), ("x", "1")], Fold::One, t), 5.0);
        assert_eq!(fold(&[("s", "a|b")], Fold::Max, t), 5.0);
        assert_eq!(fold(&[("x", "1")], Fold::Min, t), 1.0);
        let whole = [Fold::Steady, Fold::Rise, Fold::Fall].map(|f| fold(&[], f, t));
        assert_eq!(whole, [4.0, 2.0, 3.0]);
        for (key, f) in [
            (&[("s", "c")], Fold::Max),
            (&[("s", "a")], Fold::One),
            (&[("z", "a")], Fold::Max),
        ] {
            assert!(fold(key, f, t).is_nan(), "{key:?}");
        }
        let t = "s,y\na,1\nb,NaN\n";
        for f in [Fold::Max, Fold::Min, Fold::Steady, Fold::Rise, Fold::Fall] {
            assert!(fold(&[], f, t).is_nan(), "{f:?}");
        }
        let cmps = [
            Cmp::AtMost(1.0, 0.0),
            Cmp::AtLeast(1.0, 0.0),
            Cmp::Near(1.0, 9.0),
        ];
        assert!(cmps.iter().all(|c| !c.holds(f64::NAN)));
        assert!(Cmp::Near(5.0, 0.5).holds(4.5) && !Cmp::AtMost(0.5, 0.1).holds(0.61));
    }
}
