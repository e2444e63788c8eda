//! Loading user data from disk.
//!
//! The synthetic catalog serves the reproduction; real use starts from
//! files. Two plain-text formats cover the paper's input families without
//! external dependencies:
//!
//! * **Delimited numeric tables** (CSV/TSV) → dense rows, optionally
//!   z-normed, for the cosine workflows of Chapters 2/3/5.
//! * **Transaction lists** (one whitespace-separated item list per line,
//!   the FIMI convention) → LAM / Jaccard workflows.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use crate::datasets::{Dataset, DatasetKind};
use crate::prep::{rows_to_vectors, z_normalize_columns};
use crate::similarity::Similarity;

/// Errors from data loading.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A cell failed to parse as a number (line, column, token).
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// 1-based column number.
        column: usize,
        /// The offending token.
        token: String,
    },
    /// A row had a different number of columns than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Columns found.
        found: usize,
        /// Columns expected.
        expected: usize,
    },
    /// The input contained no data rows.
    Empty,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::BadNumber {
                line,
                column,
                token,
            } => write!(
                f,
                "line {line}, column {column}: cannot parse {token:?} as a number"
            ),
            LoadError::RaggedRow {
                line,
                found,
                expected,
            } => write!(f, "line {line}: {found} columns, expected {expected}"),
            LoadError::Empty => write!(f, "no data rows found"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Options for table loading.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Cell delimiter; `None` auto-detects comma / tab / semicolon from
    /// the first data line (whitespace otherwise).
    pub delimiter: Option<char>,
    /// Skip the first line (header).
    pub has_header: bool,
    /// Z-normalize every column after loading (Ch. 3's preparation).
    pub z_normalize: bool,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self {
            delimiter: None,
            has_header: true,
            z_normalize: true,
        }
    }
}

/// Loads a delimited numeric table from a reader.
pub fn read_table<R: Read>(reader: R, opts: &TableOptions) -> Result<Vec<Vec<f64>>, LoadError> {
    let buf = BufReader::new(reader);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut expected = 0usize;
    let mut delim = opts.delimiter;
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if opts.has_header && rows.is_empty() && lineno == 0 {
            continue;
        }
        let d = *delim.get_or_insert_with(|| detect_delimiter(trimmed));
        let cells: Vec<&str> = if d == ' ' {
            trimmed.split_whitespace().collect()
        } else {
            trimmed.split(d).collect()
        };
        let mut row = Vec::with_capacity(cells.len());
        for (col, cell) in cells.iter().enumerate() {
            let token = cell.trim();
            match token.parse::<f64>() {
                Ok(v) if v.is_finite() => row.push(v),
                _ => {
                    return Err(LoadError::BadNumber {
                        line: lineno + 1,
                        column: col + 1,
                        token: token.to_string(),
                    })
                }
            }
        }
        if rows.is_empty() {
            expected = row.len();
        } else if row.len() != expected {
            return Err(LoadError::RaggedRow {
                line: lineno + 1,
                found: row.len(),
                expected,
            });
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(LoadError::Empty);
    }
    if opts.z_normalize {
        z_normalize_columns(&mut rows);
    }
    Ok(rows)
}

fn detect_delimiter(line: &str) -> char {
    for d in [',', '\t', ';'] {
        if line.contains(d) {
            return d;
        }
    }
    ' '
}

/// Loads a numeric table from a file and wraps it as a cosine [`Dataset`].
pub fn load_table_dataset<P: AsRef<Path>>(
    path: P,
    opts: &TableOptions,
) -> Result<Dataset, LoadError> {
    let file = std::fs::File::open(&path)?;
    let rows = read_table(file, opts)?;
    let dim = rows[0].len();
    let name = path
        .as_ref()
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "table".to_string());
    Ok(Dataset {
        name,
        kind: DatasetKind::NumericTable,
        records: rows_to_vectors(&rows),
        labels: None,
        measure: Similarity::Cosine,
        dim,
    })
}

/// Reads FIMI-style transactions (one whitespace-separated item list per
/// line; `#` comments and blank lines skipped).
pub fn read_transactions<R: Read>(reader: R) -> Result<Vec<Vec<u32>>, LoadError> {
    let buf = BufReader::new(reader);
    let mut out = Vec::new();
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut tx = Vec::new();
        for (col, token) in trimmed.split_whitespace().enumerate() {
            match token.parse::<u32>() {
                Ok(v) => tx.push(v),
                Err(_) => {
                    return Err(LoadError::BadNumber {
                        line: lineno + 1,
                        column: col + 1,
                        token: token.to_string(),
                    })
                }
            }
        }
        tx.sort_unstable();
        tx.dedup();
        if !tx.is_empty() {
            out.push(tx);
        }
    }
    if out.is_empty() {
        return Err(LoadError::Empty);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_with_header_and_znorm() {
        let csv = "a,b\n1,10\n2,10\n3,10\n";
        let rows = read_table(csv.as_bytes(), &TableOptions::default()).expect("parses");
        assert_eq!(rows.len(), 3);
        // First column z-normed; constant column zeroed.
        assert!(rows.iter().map(|r| r[0]).sum::<f64>().abs() < 1e-9);
        assert!(rows.iter().all(|r| r[1] == 0.0));
    }

    #[test]
    fn tsv_and_semicolon_autodetect() {
        let tsv = "1\t2\n3\t4\n";
        let opts = TableOptions {
            has_header: false,
            z_normalize: false,
            ..TableOptions::default()
        };
        assert_eq!(
            read_table(tsv.as_bytes(), &opts).expect("tsv"),
            vec![vec![1.0, 2.0], vec![3.0, 4.0]]
        );
        let semi = "1;2\n3;4\n";
        assert_eq!(read_table(semi.as_bytes(), &opts).expect("semi").len(), 2);
        let ws = "1 2\n3 4\n";
        assert_eq!(read_table(ws.as_bytes(), &opts).expect("ws").len(), 2);
    }

    #[test]
    fn bad_number_is_located() {
        let csv = "1,2\n3,oops\n";
        let opts = TableOptions {
            has_header: false,
            z_normalize: false,
            ..TableOptions::default()
        };
        match read_table(csv.as_bytes(), &opts) {
            Err(LoadError::BadNumber {
                line,
                column,
                token,
            }) => {
                assert_eq!((line, column), (2, 2));
                assert_eq!(token, "oops");
            }
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn ragged_rows_rejected() {
        let csv = "1,2\n3\n";
        let opts = TableOptions {
            has_header: false,
            z_normalize: false,
            ..TableOptions::default()
        };
        assert!(matches!(
            read_table(csv.as_bytes(), &opts),
            Err(LoadError::RaggedRow {
                line: 2,
                found: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            read_table("# only comments\n".as_bytes(), &TableOptions::default()),
            Err(LoadError::Empty)
        ));
    }

    #[test]
    fn nan_and_inf_rejected() {
        let opts = TableOptions {
            has_header: false,
            z_normalize: false,
            ..TableOptions::default()
        };
        assert!(read_table("NaN,1\n".as_bytes(), &opts).is_err());
        assert!(read_table("inf,1\n".as_bytes(), &opts).is_err());
    }

    #[test]
    fn transactions_roundtrip() {
        let fimi = "# a comment\n3 1 2\n\n5 5 4\n";
        let txs = read_transactions(fimi.as_bytes()).expect("parses");
        assert_eq!(txs, vec![vec![1, 2, 3], vec![4, 5]]);
    }

    #[test]
    fn file_loading_end_to_end() {
        let dir = std::env::temp_dir();
        let p = dir.join("plasma_io_test.csv");
        std::fs::write(&p, "x,y\n1,4\n2,5\n3,6\n").expect("write temp file");
        let ds = load_table_dataset(&p, &TableOptions::default()).expect("loads");
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim, 2);
        assert_eq!(ds.name, "plasma_io_test");
        std::fs::remove_file(&p).ok();
    }
}
