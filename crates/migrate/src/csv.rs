//! A real CSV codec: the naive migration path's data plane.

use pspp_common::{Batch, DataType, Error, Result, Schema, Value};

/// Encodes a batch as CSV text (header + one line per row).
pub fn encode(batch: &Batch) -> String {
    let mut out = String::new();
    out.push_str(&batch.schema().names().join(","));
    out.push('\n');
    for r in 0..batch.num_rows() {
        for c in 0..batch.schema().arity() {
            if c > 0 {
                out.push(',');
            }
            match batch.value(r, c) {
                Value::Null => {}
                Value::Str(s) => {
                    out.push('"');
                    out.push_str(&s.replace('"', "\"\""));
                    out.push('"');
                }
                other => out.push_str(&other.to_string()),
            }
        }
        out.push('\n');
    }
    out
}

/// Parses CSV text produced by [`encode`] back into a batch, coercing
/// each field to the schema's type. A newline ends a record only outside
/// quotes: a quoted string keeps its line breaks.
///
/// # Errors
///
/// Returns [`Error::Migration`] on header mismatch or unparseable
/// fields.
pub fn decode(schema: &Schema, text: &str) -> Result<Batch> {
    let mut records = records(text);
    let header = records
        .next()
        .ok_or_else(|| Error::Migration("empty csv".into()))?;
    if header != schema.names().join(",") {
        return Err(Error::Migration(format!("header mismatch: {header}")));
    }
    let mut batch = Batch::empty(schema.clone());
    let mut values = Vec::with_capacity(schema.arity());
    for record in records {
        let fields = split_csv_line(record);
        if fields.len() != schema.arity() {
            return Err(Error::Migration(format!(
                "expected {} fields, got {} in {record:?}",
                schema.arity(),
                fields.len()
            )));
        }
        values.clear();
        for ((field, quoted), spec) in fields.iter().zip(schema.fields()) {
            values.push(parse_field(field, *quoted, spec.data_type)?);
        }
        // Each value is of its field's type or NULL.
        let width: usize = values.iter().map(Value::byte_size).sum();
        let width = u32::try_from(width)
            .map_err(|_| Error::Migration(format!("a record of {width} payload bytes")))?;
        batch.push_row(&values, width);
    }
    Ok(batch)
}

/// The records of `text`: what lies between newlines outside quotes, a
/// `\r` before the newline dropped, as [`str::lines`] drops it.
fn records(text: &str) -> impl Iterator<Item = &str> {
    let mut in_quotes = false;
    let records = text.split_inclusive(move |c| {
        in_quotes ^= c == '"';
        c == '\n' && !in_quotes
    });
    records.map(|record| match record.strip_suffix('\n') {
        Some(record) => record.strip_suffix('\r').unwrap_or(record),
        None => record,
    })
}

/// Splits one CSV record into `(content, was_quoted)` fields; quoting
/// distinguishes the empty string from an absent (NULL) value.
fn split_csv_line(line: &str) -> Vec<(String, bool)> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut saw_quote = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => {
                in_quotes = !in_quotes;
                saw_quote = true;
            }
            ',' if !in_quotes => {
                fields.push((std::mem::take(&mut cur), saw_quote));
                saw_quote = false;
            }
            _ => cur.push(c),
        }
    }
    fields.push((cur, saw_quote));
    fields
}

fn parse_field(text: &str, quoted: bool, data_type: DataType) -> Result<Value> {
    if text.is_empty() && !quoted {
        return Ok(Value::Null);
    }
    let err = |t: &str| Error::Migration(format!("cannot parse {text:?} as {t}"));
    Ok(match data_type {
        DataType::Int => Value::Int(text.parse().map_err(|_| err("int"))?),
        DataType::Float => Value::Float(text.parse().map_err(|_| err("float"))?),
        DataType::Bool => Value::Bool(text.parse().map_err(|_| err("bool"))?),
        DataType::Str => Value::Str(text.to_owned()),
        // `Value`'s display form: `0x` and two hex digits per byte.
        DataType::Bytes => {
            let hex = text.strip_prefix("0x").ok_or_else(|| err("bytes"))?;
            let byte = |pair: &[u8]| {
                let digits = std::str::from_utf8(pair).map_err(|_| err("bytes"))?;
                u8::from_str_radix(digits, 16).map_err(|_| err("bytes"))
            };
            if hex.len() % 2 != 0 {
                return Err(err("bytes"));
            }
            Value::Bytes(hex.as_bytes().chunks(2).map(byte).collect::<Result<_>>()?)
        }
        DataType::Timestamp => Value::Timestamp(
            text.trim_start_matches('@')
                .parse()
                .map_err(|_| err("timestamp"))?,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, Row};

    fn batch() -> Batch {
        let schema = Schema::new(vec![
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("w", DataType::Float),
            ("ok", DataType::Bool),
            ("at", DataType::Timestamp),
        ]);
        Batch::from_rows(
            &schema,
            vec![
                row![1i64, "plain", 0.5, true, Value::Timestamp(99)],
                row![2i64, "with,comma", -1.25, false, Value::Timestamp(0)],
                row![3i64, "with\"quote", 2.0, true, Value::Timestamp(-5)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_with_commas_and_quotes() {
        let b = batch();
        let text = encode(&b);
        let decoded = decode(b.schema(), &text).unwrap();
        assert_eq!(decoded.to_rows(), b.to_rows());
        assert_eq!(decoded, b);
    }

    #[test]
    fn nulls_roundtrip_as_empty_fields() {
        let schema = Schema::new(vec![("a", DataType::Int), ("b", DataType::Str)]);
        let b = Batch::from_rows(
            &schema,
            vec![Row::from(vec![Value::Null, Value::from("x")])],
        )
        .unwrap();
        let rows = decode(b.schema(), &encode(&b)).unwrap().to_rows();
        assert_eq!(rows[0][0], Value::Null);
        // A one-column row holding NULL is an empty line, and that line
        // is a row, the last one included.
        let schema = Schema::new(vec![("x", DataType::Int)]);
        let rows: Vec<Row> = [Value::Int(1), Value::Null, Value::Int(3), Value::Null]
            .into_iter()
            .map(|v| Row::from(vec![v]))
            .collect();
        let b = Batch::from_rows(&schema, rows.clone()).unwrap();
        assert_eq!(encode(&b), "x\n1\n\n3\n\n");
        assert_eq!(decode(&schema, &encode(&b)).unwrap().to_rows(), rows);
    }

    /// A newline ends a record only outside quotes: a string holding
    /// `\n` or `\r\n` comes back whole, beside a comma, a doubled
    /// quote, and the empty string, which is not NULL.
    #[test]
    fn quoted_line_breaks_stay_in_their_field() {
        let schema = Schema::new(vec![("id", DataType::Int), ("s", DataType::Str)]);
        let texts = [
            Value::from("line one\nline two"),
            Value::from("crlf\r\nend\n"),
            Value::from("\n"),
            Value::from("a,b"),
            Value::from("say \"hi\""),
            Value::from(""),
            Value::Null,
            Value::from("\"\n\""),
        ];
        let rows: Vec<Row> = (0i64..)
            .zip(texts)
            .map(|(i, s)| Row::from(vec![Value::Int(i), s]))
            .collect();
        let b = Batch::from_rows(&schema, rows.clone()).unwrap();
        assert_eq!(decode(&schema, &encode(&b)).unwrap().to_rows(), rows);
        // A record may end in `\r\n` outside quotes, as before.
        let text = "id,s\r\n1,\"a\r\nb\"\r\n2,\r\n";
        assert_eq!(
            decode(&schema, text).unwrap().to_rows(),
            vec![
                row![1i64, "a\r\nb"],
                Row::from(vec![Value::Int(2), Value::Null])
            ]
        );
    }

    #[test]
    fn header_mismatch_rejected() {
        let b = batch();
        assert!(decode(b.schema(), "x,y\n1,2\n").is_err());
    }

    #[test]
    fn bad_field_count_rejected() {
        let b = batch();
        let text = format!("{}\n1,only_two\n", b.schema().names().join(","));
        assert!(decode(b.schema(), &text).is_err());
    }

    #[test]
    fn type_errors_rejected() {
        let schema = Schema::new(vec![("a", DataType::Int)]);
        assert!(decode(&schema, "a\nnot_a_number\n").is_err());
    }
}
