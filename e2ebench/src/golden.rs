//! Holds every point that repeats a row of a committed figure CSV to
//! that row, at the CSV's printed precision, so the benchmark cannot
//! drift onto a different model unnoticed. The CSVs are only read.

use crate::points::{Kind, Point, Virt, SCALE_RANKS};
use std::collections::HashMap;
use std::path::Path;

/// Cells of the committed CSVs, keyed `(file, x, column)`.
pub struct Golden {
    cells: HashMap<(&'static str, String, String), String>,
}

const FILES: [&str; 5] = ["fig8.csv", "fig9.csv", "fig11.csv", "fig14.csv", "x14.csv"];

impl Golden {
    /// Loads the CSVs from `results`. For `x14.csv` the row key is
    /// `ranks/shards/threads`.
    pub fn load(results: &Path) -> Result<Golden, String> {
        let mut cells = HashMap::new();
        for file in FILES {
            let path = results.join(file);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let mut lines = text.lines();
            let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
            for line in lines {
                let row: Vec<&str> = line.split(',').collect();
                let x = if file == "x14.csv" {
                    row[..3.min(row.len())].join("/")
                } else {
                    row[0].to_owned()
                };
                for (col, cell) in header.iter().zip(&row).skip(1) {
                    cells.insert((file, x.clone(), (*col).to_owned()), (*cell).to_owned());
                }
            }
        }
        Ok(Golden { cells })
    }

    /// Compares `p`'s virtual result with its CSV cell, if it has one.
    /// Returns the number of cells compared (0 or 1).
    pub fn check(&self, p: &Point, v: &Virt) -> Result<usize, String> {
        let (file, x, col, got) = match (&p.kind, v, p.csv_series) {
            (Kind::PingPong { cols }, Virt::OpNs(ns), Some(s)) => {
                let file = if p.worst { "fig14.csv" } else { "fig8.csv" };
                (
                    file,
                    cols.to_string(),
                    s,
                    format!("{:.4}", *ns as f64 / 1e3),
                )
            }
            (Kind::Bandwidth { cols }, Virt::Window { interval_ns, bytes }, Some(s))
                if !p.worst =>
            {
                (
                    "fig9.csv",
                    cols.to_string(),
                    s,
                    format!("{:.4}", Virt::mbs(*interval_ns, *bytes)),
                )
            }
            (Kind::Alltoall { last_block_ints }, Virt::OpNs(ns), Some(s)) => (
                "fig11.csv",
                last_block_ints.to_string(),
                s,
                format!("{:.4}", *ns as f64 / 1e6),
            ),
            (Kind::Scale, Virt::ScaleFinishNs(ns), _) => (
                "x14.csv",
                format!("{SCALE_RANKS}/1/1"),
                "finish_ns",
                ns.to_string(),
            ),
            _ => return Ok(0),
        };
        let key = (file, x, col.to_owned());
        match self.cells.get(&key) {
            Some(want) if *want == got => Ok(1),
            Some(want) => Err(format!(
                "{}: virtual result {got} differs from results/{file} row {} column {col}: {want}",
                p.name, key.1
            )),
            None => Err(format!(
                "{}: results/{file} has no row {} column {col}",
                p.name, key.1
            )),
        }
    }
}
