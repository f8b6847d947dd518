//! Minimal TSV serialization for trace records.
//!
//! Hand-rolled (no external codec crates): records are single lines of
//! tab-separated fields with a fixed header, the standard interchange shape
//! for measurement traces.

use std::fmt;
use std::io::{self, BufRead, Write};

/// A record that can be written as a TSV row.
pub trait ToTsv {
    /// Header line (without trailing newline).
    const HEADER: &'static str;

    /// Serialize to one row (no trailing newline, no embedded tabs except as
    /// separators).
    fn to_row(&self) -> String;
}

impl<R: ToTsv> ToTsv for &R {
    const HEADER: &'static str = R::HEADER;

    fn to_row(&self) -> String {
        (**self).to_row()
    }
}

/// A record that can be parsed from a TSV row.
pub trait FromTsv: Sized {
    /// Parse one row.
    fn from_row(row: &str) -> Result<Self, ParseError>;
}

/// TSV parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    /// A field failed to parse.
    pub fn bad_field(name: &str, value: &str) -> Self {
        ParseError { message: format!("bad {name}: {value:?}") }
    }

    /// Wrong number of fields in the row.
    pub fn wrong_arity(expected: usize, got: usize) -> Self {
        ParseError { message: format!("expected {expected} fields, got {got}") }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

/// Write a header plus all records to `w`. Records stream: a slice, a
/// `Vec` reference or any iterator of records (or of references) works.
pub fn write_tsv<I>(w: &mut impl Write, records: I) -> io::Result<()>
where
    I: IntoIterator,
    I::Item: ToTsv,
{
    writeln!(w, "{}", <I::Item as ToTsv>::HEADER)?;
    for r in records {
        writeln!(w, "{}", r.to_row())?;
    }
    Ok(())
}

/// Read records from `r`, expecting (and skipping) the header line.
pub fn read_tsv<R: ToTsv + FromTsv>(r: &mut impl BufRead) -> io::Result<Vec<R>> {
    let mut lines = r.lines();
    match lines.next() {
        Some(header) => {
            let header = header?;
            if header != R::HEADER {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected header: {header:?}"),
                ));
            }
        }
        None => return Ok(Vec::new()),
    }
    let mut out = Vec::new();
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        out.push(
            R::from_row(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pair(u32, f64);

    impl ToTsv for Pair {
        const HEADER: &'static str = "a\tb";
        fn to_row(&self) -> String {
            format!("{}\t{}", self.0, self.1)
        }
    }

    impl FromTsv for Pair {
        fn from_row(row: &str) -> Result<Self, ParseError> {
            let f: Vec<&str> = row.split('\t').collect();
            if f.len() != 2 {
                return Err(ParseError::wrong_arity(2, f.len()));
            }
            Ok(Pair(
                f[0].parse().map_err(|_| ParseError::bad_field("a", f[0]))?,
                f[1].parse().map_err(|_| ParseError::bad_field("b", f[1]))?,
            ))
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let records = vec![Pair(1, 2.5), Pair(3, 4.0)];
        let mut buf = Vec::new();
        write_tsv(&mut buf, &records).unwrap();
        let parsed: Vec<Pair> = read_tsv(&mut buf.as_slice()).unwrap();
        assert_eq!(parsed, records);
        // Streaming owned records writes the same bytes as the slice.
        let mut streamed = Vec::new();
        write_tsv(&mut streamed, records.iter().map(|p| Pair(p.0, p.1))).unwrap();
        assert_eq!(streamed, buf);
    }

    #[test]
    fn empty_input_is_empty_vec() {
        let parsed: Vec<Pair> = read_tsv(&mut "".as_bytes()).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn wrong_header_is_an_error() {
        let err = read_tsv::<Pair>(&mut "x\ty\n1\t2".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let parsed: Vec<Pair> = read_tsv(&mut "a\tb\n1\t2\n\n3\t4\n".as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn bad_row_is_an_error() {
        assert!(read_tsv::<Pair>(&mut "a\tb\noops".as_bytes()).is_err());
    }
}
