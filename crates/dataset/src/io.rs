//! WS-DREAM-style text I/O.
//!
//! The public WS-DREAM releases ship QoS data in two plain-text layouts,
//! both supported here so the synthetic data can be exported for external
//! tools and real data can be imported if available:
//!
//! * **dense matrix** — one row of whitespace-separated values per user,
//!   `-1` marking an unobserved cell;
//! * **triplets** — `user service time value` per line (`rtdata.txt`-style).

use crate::stream::QosSample;
use crate::DatasetError;
use qos_linalg::{DenseMatrix, SparseMatrix};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Sentinel written for unobserved cells in the dense format.
pub const MISSING: f64 = -1.0;

/// Writes a dense matrix in WS-DREAM layout. Accepts any `Write`; pass
/// `&mut file` to keep ownership of the file.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_dense<W: Write>(matrix: &DenseMatrix, writer: W) -> Result<(), DatasetError> {
    let mut w = BufWriter::new(writer);
    for i in 0..matrix.rows() {
        let row: Vec<String> = matrix.row(i).iter().map(|v| format!("{v:.6}")).collect();
        writeln!(w, "{}", row.join(" "))?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a dense matrix in WS-DREAM layout.
///
/// # Errors
///
/// Returns [`DatasetError::Parse`] for ragged rows or unparsable floats,
/// and propagates I/O errors.
pub fn read_dense<R: Read>(reader: R) -> Result<DenseMatrix, DatasetError> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (line_no, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let row: Result<Vec<f64>, _> = trimmed.split_whitespace().map(str::parse).collect();
        let row = row.map_err(|e| DatasetError::Parse {
            line: line_no + 1,
            message: format!("bad float: {e}"),
        })?;
        if let Some(first) = rows.first() {
            if row.len() != first.len() {
                return Err(DatasetError::Parse {
                    line: line_no + 1,
                    message: format!(
                        "ragged row: expected {} values, got {}",
                        first.len(),
                        row.len()
                    ),
                });
            }
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(DatasetError::Parse {
            line: 0,
            message: "empty file".to_string(),
        });
    }
    DenseMatrix::from_rows(&rows).map_err(|e| DatasetError::Parse {
        line: 0,
        message: e.to_string(),
    })
}

/// Writes a sparse matrix as a dense WS-DREAM grid with `-1` for missing.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_sparse_as_dense<W: Write>(
    matrix: &SparseMatrix,
    writer: W,
) -> Result<(), DatasetError> {
    write_dense(&matrix.to_dense(MISSING), writer)
}

/// Reads a dense WS-DREAM grid into a sparse matrix, treating negative cells
/// as unobserved.
///
/// # Errors
///
/// Same as [`read_dense`].
pub fn read_dense_as_sparse<R: Read>(reader: R) -> Result<SparseMatrix, DatasetError> {
    let dense = read_dense(reader)?;
    let mut sparse = SparseMatrix::new(dense.rows(), dense.cols());
    for i in 0..dense.rows() {
        for j in 0..dense.cols() {
            let v = dense.get(i, j);
            if v >= 0.0 {
                sparse.insert(i, j, v);
            }
        }
    }
    Ok(sparse)
}

/// Writes samples as `user service timestamp value` triplet lines
/// (WS-DREAM `rtdata.txt` layout, with seconds for the time column).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_triplets<W: Write>(samples: &[QosSample], writer: W) -> Result<(), DatasetError> {
    let mut w = BufWriter::new(writer);
    for s in samples {
        writeln!(w, "{} {} {} {:.6}", s.user, s.service, s.timestamp, s.value)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads triplet lines written by [`write_triplets`]: [`triplets`],
/// collected.
///
/// # Errors
///
/// Returns [`DatasetError::Parse`] for malformed lines and propagates I/O
/// errors.
pub fn read_triplets<R: Read>(reader: R) -> Result<Vec<QosSample>, DatasetError> {
    triplets(reader).collect()
}

/// Parses triplet lines one at a time, skipping blank lines, so a file of
/// any size is read in constant memory.
///
/// # Errors
///
/// Yields [`DatasetError::Parse`], with the 1-based line number, for a
/// malformed line, and [`DatasetError::Io`] for a read error. Callers stop
/// at the first error.
///
/// # Examples
///
/// ```
/// use qos_dataset::{io, DatasetError};
///
/// let mut lines = io::triplets("0 1 2 1.5\n\n0 1 x 1.5\n".as_bytes());
/// assert_eq!(lines.next().unwrap().unwrap().service, 1);
/// assert!(matches!(lines.next(), Some(Err(DatasetError::Parse { line: 3, .. }))));
/// ```
pub fn triplets<R: Read>(reader: R) -> impl Iterator<Item = Result<QosSample, DatasetError>> {
    Triplets {
        reader: BufReader::new(reader),
        line: String::new(),
        line_no: 0,
    }
}

/// The iterator behind [`triplets`]: one line buffer, reused.
struct Triplets<R> {
    reader: BufReader<R>,
    line: String,
    line_no: usize,
}

impl<R: Read> Iterator for Triplets<R> {
    type Item = Result<QosSample, DatasetError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => self.line_no += 1,
                Err(e) => return Some(Err(e.into())),
            }
            if let Some(sample) = parse_triplet(self.line_no, &self.line).transpose() {
                return Some(sample);
            }
        }
    }
}

/// One triplet line; `Ok(None)` for a blank one.
fn parse_triplet(line_no: usize, line: &str) -> Result<Option<QosSample>, DatasetError> {
    let mut fields = line.split_whitespace();
    let Some(user) = fields.next() else {
        return Ok(None);
    };
    let (Some(service), Some(timestamp), Some(value), None) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err(DatasetError::Parse {
            line: line_no,
            message: format!("expected 4 fields, got {}", line.split_whitespace().count()),
        });
    };
    let parse_err = |what: &str| DatasetError::Parse {
        line: line_no,
        message: format!("bad {what}"),
    };
    Ok(Some(QosSample::new(
        timestamp.parse().map_err(|_| parse_err("timestamp"))?,
        user.parse().map_err(|_| parse_err("user id"))?,
        service.parse().map_err(|_| parse_err("service id"))?,
        value.parse().map_err(|_| parse_err("value"))?,
    )))
}

/// Writes a dense matrix to a file path.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_dense_file<P: AsRef<Path>>(matrix: &DenseMatrix, path: P) -> Result<(), DatasetError> {
    write_dense(matrix, std::fs::File::create(path)?)
}

/// Reads a dense matrix from a file path.
///
/// # Errors
///
/// Propagates file-open errors and [`read_dense`] errors.
pub fn read_dense_file<P: AsRef<Path>>(path: P) -> Result<DenseMatrix, DatasetError> {
    read_dense(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let m = DenseMatrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 / 3.0);
        let mut buf = Vec::new();
        write_dense(&m, &mut buf).unwrap();
        let back = read_dense(&buf[..]).unwrap();
        assert_eq!(back.shape(), (3, 4));
        for i in 0..3 {
            for j in 0..4 {
                assert!((back.get(i, j) - m.get(i, j)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn sparse_roundtrip_preserves_missing() {
        let mut m = SparseMatrix::new(2, 3);
        m.insert(0, 0, 1.5);
        m.insert(1, 2, 0.25);
        let mut buf = Vec::new();
        write_sparse_as_dense(&m, &mut buf).unwrap();
        let back = read_dense_as_sparse(&buf[..]).unwrap();
        assert_eq!(back.nnz(), 2);
        assert_eq!(back.get(0, 0), Some(1.5));
        assert_eq!(back.get(1, 2), Some(0.25));
        assert_eq!(back.get(0, 1), None);
    }

    #[test]
    fn triplet_roundtrip() {
        let samples = vec![QosSample::new(0, 1, 2, 1.4), QosSample::new(900, 3, 4, 0.5)];
        let mut buf = Vec::new();
        write_triplets(&samples, &mut buf).unwrap();
        let back = read_triplets(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].user, 1);
        assert_eq!(back[0].service, 2);
        assert_eq!(back[0].timestamp, 0);
        assert!((back[1].value - 0.5).abs() < 1e-9);
    }

    #[test]
    fn read_dense_rejects_ragged() {
        let text = "1.0 2.0\n3.0\n";
        let err = read_dense(text.as_bytes()).unwrap_err();
        assert!(matches!(err, DatasetError::Parse { line: 2, .. }));
    }

    #[test]
    fn read_dense_rejects_garbage() {
        let text = "1.0 banana\n";
        assert!(matches!(
            read_dense(text.as_bytes()),
            Err(DatasetError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn read_dense_rejects_empty() {
        assert!(read_dense("".as_bytes()).is_err());
        assert!(read_dense("\n\n".as_bytes()).is_err());
    }

    #[test]
    fn read_triplets_rejects_short_lines() {
        assert!(matches!(
            read_triplets("1 2 3\n".as_bytes()),
            Err(DatasetError::Parse { .. })
        ));
        assert!(read_triplets("a 2 3 4\n".as_bytes()).is_err());
    }

    #[test]
    fn triplet_errors_name_their_line() {
        let text = "0 1 2 1.5\n\n   \n0 1 2\n";
        let err = read_triplets(text.as_bytes()).unwrap_err();
        assert!(matches!(err, DatasetError::Parse { line: 4, .. }), "{err}");
        assert!(err.to_string().contains("line 4"), "{err}");
        let mut lines = triplets("0 1 2 1.5\n3 4 5 bad\n".as_bytes());
        assert_eq!(lines.next().unwrap().unwrap().user, 0);
        assert!(matches!(
            lines.next(),
            Some(Err(DatasetError::Parse { line: 2, .. }))
        ));
    }

    #[test]
    fn blank_lines_skipped() {
        let text = "\n1.0 2.0\n\n3.0 4.0\n";
        let m = read_dense(text.as_bytes()).unwrap();
        assert_eq!(m.shape(), (2, 2));
        let trips = read_triplets("\n0 1 2 3.0\n\n".as_bytes()).unwrap();
        assert_eq!(trips.len(), 1);
    }

    mod properties {
        use super::*;
        use crate::stream::QosSample;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn dense_roundtrip_any_matrix(
                rows in 1usize..6,
                cols in 1usize..6,
                seed in 0u64..500
            ) {
                let m = DenseMatrix::from_fn(rows, cols, |i, j| {
                    ((i * 31 + j * 17 + seed as usize) % 1000) as f64 / 7.0
                });
                let mut buf = Vec::new();
                write_dense(&m, &mut buf).unwrap();
                let back = read_dense(&buf[..]).unwrap();
                prop_assert_eq!(back.shape(), (rows, cols));
                for i in 0..rows {
                    for j in 0..cols {
                        prop_assert!((back.get(i, j) - m.get(i, j)).abs() < 1e-5);
                    }
                }
            }

            #[test]
            fn triplet_roundtrip_any_samples(
                samples in proptest::collection::vec(
                    (0u64..100_000, 0usize..500, 0usize..5_000, 0.0..7000.0f64),
                    0..40
                )
            ) {
                let originals: Vec<QosSample> = samples
                    .into_iter()
                    .map(|(t, u, s, v)| QosSample::new(t, u, s, v))
                    .collect();
                let mut buf = Vec::new();
                write_triplets(&originals, &mut buf).unwrap();
                let back = read_triplets(&buf[..]).unwrap();
                prop_assert_eq!(back.len(), originals.len());
                for (a, b) in originals.iter().zip(&back) {
                    prop_assert_eq!(a.timestamp, b.timestamp);
                    prop_assert_eq!(a.user, b.user);
                    prop_assert_eq!(a.service, b.service);
                    prop_assert!((a.value - b.value).abs() < 1e-5);
                }
            }

            #[test]
            fn sparse_roundtrip_preserves_observed_set(
                entries in proptest::collection::vec(
                    (0usize..6, 0usize..6, 0.0..100.0f64),
                    0..20
                )
            ) {
                let mut m = SparseMatrix::new(6, 6);
                for (i, j, v) in entries {
                    m.insert(i, j, v);
                }
                let mut buf = Vec::new();
                write_sparse_as_dense(&m, &mut buf).unwrap();
                let back = read_dense_as_sparse(&buf[..]).unwrap();
                prop_assert_eq!(back.nnz(), m.nnz());
                for e in m.iter() {
                    let restored = back.get(e.row, e.col).unwrap();
                    prop_assert!((restored - e.value).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("qos_dataset_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("matrix.txt");
        let m = DenseMatrix::from_fn(2, 2, |i, j| (i + j) as f64);
        write_dense_file(&m, &path).unwrap();
        let back = read_dense_file(&path).unwrap();
        assert_eq!(back.shape(), (2, 2));
        std::fs::remove_file(&path).unwrap();
    }
}
