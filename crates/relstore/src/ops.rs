//! Pure relational-algebra operators over row sets.
//!
//! These are the operators the paper's IR lowers SQL into (§III-A.1:
//! "SQL queries get mapped to projection, hash, sort, group-by, and join
//! operators"). They are pure functions over `(Schema, rows)` so the
//! runtime adapter can execute IR fragments on intermediate data, not
//! just on stored tables.
//!
//! # Selections
//!
//! Every kernel reads its input as [`Selected`] rows: positions into a
//! [`ColumnSource`] — a scan's kept positions over the table's
//! [`Batch`], which has every column typed and is all the table stores,
//! or every row of a batch the migrator decoded — or every row of a
//! slice. It reads a key or a value out of the batch's typed column, or
//! through the row of a slice, and returns positions of the source
//! ([`filter_at`], [`sort_at`]) or the
//! rows it builds ([`project_at`], [`group_by_at`], and the joins,
//! [`hash_join_with`] and [`sort_merge_join_with`], which build the
//! matched pairs alone). A migration batches the rows read the same way
//! ([`Selected::to_batch`]). The entry points over `&[Row]`
//! ([`filter_rows`], [`project`], [`sort_rows`], [`group_by`],
//! [`hash_join`], [`sort_merge_join`]) are the same code over every row
//! of the slice.
//!
//! A hash join finds its pairs through a hash index of one side's keys,
//! probed with the other side's keys in order. Over a side that reads
//! every row of one table snapshot, in order — a scan that keeps every
//! row, projecting or not — the index is the snapshot's own
//! ([`pspp_common::KeyIndex`], kept by [`Batch::key_index`]): built by
//! the first join that reads the snapshot so, probed by every later one,
//! and dropped by the table's next write, while a selection taken before
//! that write keeps its snapshot and the index with it. So is a side
//! that reads, part by part, one whole destination of a hash layout each
//! part's snapshot keeps of the join column — a shuffle's bucket of
//! routed scans that keep every row ([`pspp_common::HashLayout`], kept
//! by [`Batch::hash_layout`]): each part's run is probed in the part's
//! whole-snapshot index, and a row found there is kept when the layout
//! routes it to the run's destination and read at the run's offset plus
//! its rank there. Any other side — filtered, out of row order, missing
//! a row, a migrated batch (it lives for one query, and its batch keeps
//! no index), plain rows — gets a table of its own, built for the call
//! over whichever side has fewer rows. Every index is probed through the
//! one loop, as runs in read order (a table built for the call, or a
//! whole snapshot, is one run whose rows are their own read indices),
//! and the pairs come back left-major, each left row's matches in right
//! order: an index on the left is probed a right row at a time and its
//! pairs put back in left-major order.
//!
//! A kernel that builds rows out of the rows read — a projection, a
//! join's matched pairs, a scan that projects — fills them in place a
//! column at a time: it lists the indices of the rows read that each
//! output row takes (a join: each left row once per match, beside the
//! right rows it matched or, in a left outer join, a pad), and writes
//! each output column out of the image into its slot of every row of
//! one slab of NULLs ([`Row::slab_with`]) with one typed loop
//! ([`pspp_common::Column::values_into`]; `Str` and `Bytes` included),
//! staging no column on its own. [`group_by_at`] fills its rows the
//! same way, and keeps each aggregate's state in a vector a slot per
//! group, `Sum` and `Avg` of an `Int`, `Float` or `Timestamp` column
//! folded straight off the image a part's run at a time. Only rows an
//! operator built, read as a slice, are read through the rows. The
//! generic bodies (keys that are not typed words; see "Key words") read
//! cells ([`pspp_common::ValueRef`]):
//! borrowed from a row, copied out of a fixed-width image, and a string
//! or byte array read in place out of the image's buffer, so no value is
//! built to be compared, hashed or sorted.
//!
//! A [`crate::Selection`] may span several snapshots — one per shard, in
//! gather order, past an exchange that appended or split shards' scans
//! ([`crate::Selection::concat`], [`crate::Selection::split`]). A
//! position then carries its snapshot's index, its *part*, above 24 bits
//! of its row there; a selection over one snapshot has part 0 and the
//! row itself as its positions. Each kernel resolves a position's part
//! where it reads a row, a key or a value; positions it returns stay
//! tagged. [`filter_at`] and [`Selected::to_batch`] run their one-source
//! body once per part and put the results back in input order, and the
//! typed key words and the built columns are read a run of one part at
//! a time.
//!
//! A selection may also expose only some of its snapshots' columns, in
//! an order of its own: a projection ([`crate::Selection::project`]),
//! which builds no row. Column `c` of the rows read is then snapshot
//! column `columns[c]`, and each kernel translates a column it is given
//! through that list once, where it starts — a key, an aggregate's
//! column, a gathered column, a batch's kept columns, the predicate's
//! bound columns ([`pspp_common::BoundPredicate::through`]) — never per
//! cell. An ML operator reads its features the same way
//! ([`Selected::numbers`]) and builds its output rows as the input's
//! columns plus its answer ([`append_column`]).
//!
//! # Key words
//!
//! [`sort_rows`], [`group_by`] and [`hash_join`] (and [`sort_at`],
//! [`group_by_at`]) read a key column once — out of the typed image
//! over a selection, out of the rows otherwise — into a flat `Vec<u64>`,
//! one *word* per row, and then compare, hash and sort words instead of
//! `&Value`s behind a pointer per row. The encoding is a contract: for two values `a`, `b`
//! of one typed column, `word(a).cmp(&word(b)) == a.cmp(b)` (unsigned
//! order is [`Value`]'s order, so equal words are equal values):
//!
//! | column holds only  | word                                            |
//! |--------------------|-------------------------------------------------|
//! | `Bool(b)`          | `b as u64` (`false < true`)                     |
//! | `Int(v)`           | `v as u64 ^ 1 << 63` (the sign bit flipped)     |
//! | `Timestamp(v)`     | as `Int`                                        |
//! | `Float(x)`, `x` ≥ +0.0 | `x.to_bits() ^ 1 << 63`                     |
//! | `Float(x)`, sign bit set | `!x.to_bits()`                            |
//! | `Str(s)`           | none: the generic body, over `&str` cells read out of the buffer |
//!
//! Flipping the sign bit maps two's-complement order onto unsigned
//! order. The float rule is `f64::total_cmp`'s own key — the order
//! `Value::cmp` uses — shifted to unsigned: negative floats order by
//! descending magnitude, so all their bits are complemented; `-0.0` and
//! `0.0` get different words, every NaN payload its own, negative NaNs
//! below `-inf` and positive ones above `+inf`, as today. A descending
//! sort key is the complement of the word.
//!
//! A column is **not typed** — and the call runs the generic body over
//! cells ([`pspp_common::ValueRef`], which orders, compares and hashes as
//! `Value` does), which returns the same rows in the same order — when it
//! holds a `Str`, `Bytes` or `NULL` among the rows read (a NULL in the
//! typed image is a cleared validity flag), when it mixes kinds (`Int`
//! beside `Float` included: the two compare numerically and no one word
//! serves both), or when there are no rows. Beyond that,
//! `sort_rows` takes one to three keys over words, `group_by` one key
//! column (several take the generic body; none at all is one group and
//! needs no map), and `hash_join` two typed columns of the same kind or
//! one `Int` and one `Float` (the int side is re-keyed as the float it
//! compares equal to). Which body runs depends on the key values in the
//! input and on nothing else.
//!
//! A table snapshot's key index (see "Selections") holds the words of
//! its column's every row, read straight off the image, a chain of rows
//! per word. A join probes it only when the column is typed over the
//! whole snapshot and the other side's keys are typed words of the same
//! kind; a NULL on either side, a string, or `Int` against `Float` takes
//! the paths above. Equal words are equal values, so the index finds the
//! pairs a table built for the call finds, in the same order. A bucket
//! of several snapshots is served only when every part's run is one
//! whole destination — exactly that destination's count of rows, each
//! routed there, ascending, so the row of rank `i` is the run's `i`-th —
//! and every part's column is typed, of one kind; its chains hold rows
//! of every destination, and the layout's destination test keeps the
//! run's own, so the probe keys need not have been routed alike.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::Arc;

use pspp_common::{
    row_major, Batch, Column, ColumnSource, Error, FxBuildHasher, FxHasher, HashLayout, KeyIndex,
    Predicate, Result, Row, Schema, TypedColumn, Value, ValueRef,
};

use crate::table::{as_u32, part_runs, split_position, LOCAL_MASK};

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Keep only matching pairs.
    Inner,
    /// Keep all left rows, padding right columns with NULL.
    LeftOuter,
}

/// A sort key: column plus direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    /// Column name.
    pub column: String,
    /// Ascending?
    pub ascending: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            ascending: true,
        }
    }

    /// Descending key.
    pub fn desc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            ascending: false,
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Row count (column ignored).
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric mean.
    Avg,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Count of non-null values in the column — the partial state a
    /// distributed `Avg` ships to its merge stage.
    CountNonNull,
}

/// An aggregate over one column with an output name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// Function.
    pub agg: Aggregate,
    /// Input column (ignored by `Count`).
    pub column: String,
    /// Output column name.
    pub output: String,
}

impl AggregateSpec {
    /// Creates a spec.
    pub fn new(agg: Aggregate, column: impl Into<String>, output: impl Into<String>) -> Self {
        AggregateSpec {
            agg,
            column: column.into(),
            output: output.into(),
        }
    }

    /// `COUNT(*) AS output`.
    pub fn count(output: impl Into<String>) -> Self {
        AggregateSpec::new(Aggregate::Count, "*", output)
    }
}

/// The rows an operator reads: the rows at some positions of a column
/// source, in that order, or every row of a slice, or the rows at
/// tagged positions of several snapshots (module docs, "Selections").
#[derive(Debug, Clone, Copy)]
pub struct Selected<'a> {
    parts: Parts<'a>,
    /// `None`: every row of the one source, in order.
    positions: Option<&'a [u32]>,
    /// The sources' columns a projection exposes, in order: column `c`
    /// of the rows read is source column `columns[c]`. `None`: every
    /// column as it is.
    columns: Option<&'a [usize]>,
}

/// What a [`Selected`]'s positions point into.
#[derive(Debug, Clone, Copy)]
enum Parts<'a> {
    /// One source: a position is a row of it.
    One(ColumnSource<'a>),
    /// Two or more snapshots, in order: a position is a part tag above
    /// the 24 bits of a row of that part's snapshot.
    Many(&'a [Arc<Batch>]),
}

impl<'a> Selected<'a> {
    /// Every row of `rows`, in order, read through the rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for more rows than a `u32` position
    /// counts.
    pub fn all(rows: &'a [Row]) -> Result<Self> {
        as_u32(rows.len(), "row count")?;
        Ok(Selected {
            parts: Parts::One(ColumnSource::Rows(rows)),
            positions: None,
            columns: None,
        })
    }

    /// The rows at `positions` of `source`, in that order. A kernel
    /// reading it panics at a position past `source`'s rows.
    pub fn at(source: ColumnSource<'a>, positions: &'a [u32]) -> Self {
        Selected {
            parts: Parts::One(source),
            positions: Some(positions),
            columns: None,
        }
    }

    /// The rows at the tagged `positions` of `parts`, two or more
    /// snapshots.
    pub(crate) fn over(parts: &'a [Arc<Batch>], positions: &'a [u32]) -> Self {
        Selected {
            parts: Parts::Many(parts),
            positions: Some(positions),
            columns: None,
        }
    }

    /// The same rows read through a projection: column `c` is source
    /// column `columns[c]` (every column as it is for `None`).
    pub(crate) fn through(self, columns: Option<&'a [usize]>) -> Self {
        Selected { columns, ..self }
    }

    /// The source column that column `column` of the rows read is: what
    /// each kernel translates a column through once, at its entry.
    #[inline]
    fn source_column(&self, column: usize) -> usize {
        self.columns.map_or(column, |columns| columns[column])
    }

    /// Number of rows read.
    pub fn len(&self) -> usize {
        match (self.positions, self.parts) {
            (Some(positions), _) => positions.len(),
            (None, Parts::One(source)) => source.len(),
            (None, Parts::Many(_)) => 0,
        }
    }

    /// Whether no row is read.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The (tagged) position of the `i`-th row read.
    #[inline]
    fn position(&self, i: usize) -> u32 {
        match self.positions {
            Some(positions) => positions[i],
            // `all` checked that every index fits.
            None => i as u32,
        }
    }

    /// Part `part`'s source.
    fn part(&self, part: usize) -> ColumnSource<'a> {
        match self.parts {
            Parts::One(source) => source,
            Parts::Many(parts) => ColumnSource::Image(&parts[part]),
        }
    }

    /// The source position `p` points into, and the row it names there.
    #[inline]
    fn locate(&self, p: u32) -> (ColumnSource<'a>, usize) {
        match self.parts {
            Parts::One(source) => (source, p as usize),
            Parts::Many(parts) => {
                let (part, row) = split_position(p);
                (ColumnSource::Image(&parts[part]), row)
            }
        }
    }

    /// Columns `keep` of the rows read, as a migration ships them:
    /// [`Batch::from_source`] over each part's source at its positions,
    /// so a selection's columns are copied out of its snapshots and no
    /// row is built; several parts' batches are stitched back into input
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] as [`Batch::from_columns`] does
    /// over the rows read.
    pub fn to_batch(&self, schema: &Schema, keep: &[usize]) -> Result<Batch> {
        let batch =
            |source, positions| Batch::from_source(schema, source, positions, keep, self.columns);
        let (Parts::Many(parts), Some(positions)) = (self.parts, self.positions) else {
            return batch(self.part(0), self.positions);
        };
        let rows = rows_by_part(parts.len(), positions);
        let batches = (parts.iter().zip(&rows))
            .map(|(part, rows)| batch(ColumnSource::Image(part), Some(rows)))
            .collect::<Result<Vec<_>>>()
            .and_then(Batch::concat);
        let Ok(batch) = batches else {
            // Which violation comes first is a matter of input order:
            // the rows read, built, say.
            let arity = self
                .columns
                .map_or(parts[0].schema().arity(), <[usize]>::len);
            let every: Vec<usize> = (0..arity).collect();
            let rows = Row::slab_with(self.len(), arity, |slab| {
                gather_all(*self, &every, slab, arity);
            });
            return Batch::from_columns(schema, &rows, keep);
        };
        if positions.is_sorted_by_key(|&p| split_position(p).0) {
            return Ok(batch);
        }
        // Each row is its part's next: past the parts before, so many in.
        let mut next: Vec<usize> = (rows.iter())
            .scan(0, |start, rows| {
                *start += rows.len();
                Some(*start - rows.len())
            })
            .collect();
        let order: Vec<usize> = (positions.iter())
            .map(|&p| {
                let slot = &mut next[split_position(p).0];
                *slot += 1;
                *slot - 1
            })
            .collect();
        Ok(batch.take(&order))
    }

    /// Calls `f` with the index and column `column` of each row read, in
    /// order, up to its first error: read out of the image (NULL where
    /// the row's validity flag is clear), or borrowed from the row
    /// ([`ColumnSource::cell`]). A visitor, not an iterator, so that each
    /// caller's loop compiles with `f` inlined.
    #[inline]
    fn try_cells<E>(
        self,
        column: usize,
        mut f: impl FnMut(usize, ValueRef<'a>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let column = self.source_column(column);
        match self.parts {
            // One source: its column is looked up once, not per cell.
            Parts::One(ColumnSource::Image(image)) => {
                let (values, valid) = &image.columns()[column];
                for i in 0..self.len() {
                    let p = self.position(i) as usize;
                    f(
                        i,
                        if valid[p] {
                            values.view(p)
                        } else {
                            ValueRef::Null
                        },
                    )?;
                }
            }
            Parts::One(ColumnSource::Rows(rows)) => {
                for i in 0..self.len() {
                    f(i, rows[self.position(i) as usize][column].view())?;
                }
            }
            Parts::Many(_) => {
                for i in 0..self.len() {
                    f(i, self.cell(i, column))?;
                }
            }
        }
        Ok(())
    }

    /// Calls `put` with the index and column `column` of each row read
    /// as an `f64`, in order: an `Int` or `Timestamp` cast with `as`, a
    /// `Float` as it is, NULL and any other value `0.0`. Read off the
    /// images a run of one part at a time, or through the rows of a
    /// slice: a feature column of the ML engine, and no row built.
    pub fn numbers(self, column: usize, mut put: impl FnMut(usize, f64)) {
        let Some(runs) = image_runs(self, column) else {
            let Ok(()) = self.try_cells(column, |i, v| {
                put(i, v.as_f64().unwrap_or(0.0));
                Ok::<_, Infallible>(())
            });
            return;
        };
        fn each(
            (start, run, mask, valid): (usize, &[u32], u32, &[bool]),
            put: &mut impl FnMut(usize, f64),
            number: impl Fn(usize) -> f64,
        ) {
            for (i, &p) in run.iter().enumerate() {
                let p = (p & mask) as usize;
                put(start + i, if valid[p] { number(p) } else { 0.0 });
            }
        }
        let mut start = 0;
        for (run, mask, (values, valid)) in runs {
            let at = (start, run, mask, &valid[..]);
            match Numbers::of(values) {
                Some(Numbers::Ints(v)) => each(at, &mut put, |p| v[p] as f64),
                Some(Numbers::Floats(v)) => each(at, &mut put, |p| v[p]),
                None => each(at, &mut put, |_| 0.0),
            }
            start += run.len();
        }
    }

    /// Source column `column` of the `i`-th row read, as
    /// [`Selected::try_cells`] reads it.
    fn cell(&self, i: usize, column: usize) -> ValueRef<'a> {
        let (source, p) = self.locate(self.position(i));
        source.cell(p, column)
    }

    /// Columns `columns` of every row read, a cell each, row-major in
    /// one vector (row `i`'s are `cells[i * k..][..k]`, `k` columns):
    /// what the generic bodies compare, hash and sort — a string read in
    /// place out of its buffer.
    fn cells(self, columns: &[usize]) -> Vec<ValueRef<'a>> {
        let k = columns.len();
        let mut cells = vec![ValueRef::Null; self.len() * k];
        for (offset, &c) in columns.iter().enumerate() {
            let mut slots = cells.iter_mut().skip(offset).step_by(k);
            let Ok(()) = self.try_cells(c, |_, v| {
                slots.next().into_iter().for_each(|slot| *slot = v);
                Ok::<_, Infallible>(())
            });
        }
        cells
    }

    /// Writes column `c` of the rows read at `reads` (indices into the
    /// rows read, [`PAD`] for a NULL left as it is), in that order,
    /// into slot `offset` of each `width`-wide row of `out`. A run of
    /// reads in one part is written out of that snapshot by
    /// [`Column::values_into`]; reads of a slice's rows are cloned.
    fn gather_into(&self, c: usize, reads: &[u32], out: &mut [Value], width: usize, offset: usize) {
        debug_assert_eq!(out.len(), reads.len() * width, "one row per read");
        let column = self.source_column(c);
        let part = |&i: &u32| match (i, self.parts) {
            (PAD, _) => None,
            (_, Parts::One(_)) => Some(0),
            (_, Parts::Many(_)) => Some(split_position(self.position(i as usize)).0),
        };
        // What turns a position into its row in its part's snapshot.
        let mask = match self.parts {
            Parts::One(_) => u32::MAX,
            Parts::Many(_) => LOCAL_MASK,
        };
        let mut slots = out.iter_mut().skip(offset).step_by(width);
        for run in reads.chunk_by(|a, b| part(a) == part(b)) {
            let run_slots = slots.by_ref().take(run.len());
            let Some(part) = part(&run[0]) else {
                run_slots.for_each(drop);
                continue;
            };
            let source = self.part(part);
            let rows = run
                .iter()
                .map(|&i| (self.position(i as usize) & mask) as usize);
            match source {
                ColumnSource::Image(image) => {
                    let (values, valid) = &image.columns()[column];
                    values.values_into(valid, rows, run_slots);
                }
                ColumnSource::Rows(source) => rows
                    .zip(run_slots)
                    .for_each(|(p, v)| *v = source[p][column].clone()),
            }
        }
    }
}

/// The read index [`Selected::gather_into`] leaves NULL: a left outer
/// join's pad. No read index is `u32::MAX`: [`Selected::all`] refuses
/// that many rows, and as many positions would take 16 GiB.
const PAD: u32 = u32::MAX;

/// `rows` rows of `width` values cut from one slab that `fill` writes in
/// place a column at a time ([`Row::slab_with`]), and their payload
/// bytes, summed over the filled slab.
fn filled(rows: usize, width: usize, fill: impl FnOnce(&mut [Value])) -> (Vec<Row>, u64) {
    let mut bytes = 0;
    let out = Row::slab_with(rows, width, |slab| {
        fill(slab);
        bytes = slab.iter().map(|v| v.byte_size() as u64).sum();
    });
    (out, bytes)
}

/// Writes columns `columns` of every row `input` reads, in order, into
/// the first slots of the `width`-wide rows of `out`, a column at a time
/// ([`Selected::gather_into`]).
pub(crate) fn gather_all(input: Selected<'_>, columns: &[usize], out: &mut [Value], width: usize) {
    let reads: Vec<u32> = (0..input.len() as u32).collect();
    for (offset, &c) in columns.iter().enumerate() {
        input.gather_into(c, &reads, out, width, offset);
    }
}

/// Every row `input` reads — its `arity` columns — followed by its
/// value of `appended`, filled a column at a time into rows of one slab
/// ([`Row::slab_with`]), and their payload bytes: an ML operator's input
/// with its answer for each row.
///
/// # Errors
///
/// Returns [`Error::Invalid`] when `appended` has another length than
/// the input.
pub fn append_column(
    input: Selected<'_>,
    arity: usize,
    appended: Vec<Value>,
) -> Result<(Vec<Row>, u64)> {
    if appended.len() != input.len() {
        return Err(Error::Invalid(format!(
            "{} values appended to {} rows",
            appended.len(),
            input.len()
        )));
    }
    let columns: Vec<usize> = (0..arity).collect();
    Ok(filled(input.len(), arity + 1, |slab| {
        gather_all(input, &columns, slab, arity + 1);
        let slots = slab.iter_mut().skip(arity).step_by(arity + 1);
        slots.zip(appended).for_each(|(slot, value)| *slot = value);
    }))
}

/// The rows of each of `parts` snapshots that `positions`, tagged
/// positions over them, name, in input order.
fn rows_by_part(parts: usize, positions: &[u32]) -> Vec<Vec<u32>> {
    let mut rows = vec![Vec::new(); parts];
    for &p in positions {
        let (part, row) = split_position(p);
        rows[part].push(row as u32);
    }
    rows
}

/// Filters rows by a predicate, bound to the schema once. Takes the
/// rows owned or borrowed; a kept row is shared with the input, not
/// copied.
///
/// # Errors
///
/// Propagates predicate evaluation errors (unknown columns), and
/// returns [`Error::Invalid`] as [`Selected::all`] does.
pub fn filter_rows(
    schema: &Schema,
    rows: impl AsRef<[Row]>,
    predicate: &Predicate,
) -> Result<Vec<Row>> {
    let rows = rows.as_ref();
    let kept = filter_at(schema, Selected::all(rows)?, predicate)?;
    Ok(kept.iter().map(|&p| rows[p as usize].clone()).collect())
}

/// The source positions of the rows `input` reads that satisfy
/// `predicate`, in input order: [`pspp_common::BoundPredicate::select`]
/// over the input's source, a column at a time.
///
/// # Errors
///
/// Propagates predicate evaluation errors (unknown columns).
pub fn filter_at(schema: &Schema, input: Selected<'_>, predicate: &Predicate) -> Result<Vec<u32>> {
    let mut bound = predicate.bind(schema);
    if let Some(columns) = input.columns {
        bound = bound.through(columns);
    }
    let (Parts::Many(parts), Some(positions)) = (input.parts, input.positions) else {
        return bound.select(input.part(0), input.positions.map(<[u32]>::to_vec));
    };
    // Each part's rows are selected over its own source, and the kept
    // ones are taken back in input order.
    let mut kept = Vec::with_capacity(parts.len());
    for (part, rows) in parts.iter().zip(rows_by_part(parts.len(), positions)) {
        match bound.select(ColumnSource::Image(part), Some(rows)) {
            Ok(rows) => kept.push(rows.into_iter().peekable()),
            Err(e) => {
                // The error a row at a time raises first, in input order.
                for i in 0..input.len() {
                    let (source, p) = input.locate(input.position(i));
                    bound.eval_at(source, p)?;
                }
                return Err(e);
            }
        }
    }
    let mut keep = |&p: &u32| {
        let (part, row) = split_position(p);
        kept[part].next_if_eq(&(row as u32)).is_some()
    };
    Ok(positions.iter().copied().filter(|p| keep(p)).collect())
}

/// Projects rows onto named columns, returning the new schema.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown columns, and
/// [`Error::Invalid`] as [`Selected::all`] does.
pub fn project(schema: &Schema, rows: &[Row], columns: &[&str]) -> Result<(Schema, Vec<Row>)> {
    let (schema, rows, _) = project_at(schema, Selected::all(rows)?, columns)?;
    Ok((schema, rows))
}

/// [`project`] over the rows `input` reads, also returning the output's
/// payload bytes, summed as its rows are built.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown columns.
pub fn project_at(
    schema: &Schema,
    input: Selected<'_>,
    columns: &[&str],
) -> Result<(Schema, Vec<Row>, u64)> {
    let out_schema = schema.project(columns)?;
    let idx: Vec<usize> = columns
        .iter()
        .map(|c| schema.require(c))
        .collect::<Result<_>>()?;
    let fill = |slab: &mut _| gather_all(input, &idx, slab, idx.len());
    let (out, bytes) = filled(input.len(), idx.len(), fill);
    Ok((out_schema, out, bytes))
}

/// The kind of value a typed key column holds (module docs, "Key
/// words").
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyKind {
    Bool,
    Int,
    Float,
    Timestamp,
}

const SIGN: u64 = 1 << 63;

fn int_word(v: i64) -> u64 {
    v as u64 ^ SIGN
}

fn float_word(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & SIGN == 0 {
        bits ^ SIGN
    } else {
        !bits
    }
}

/// `words` followed by the words of `image`, one typed column of a
/// source, at the rows `run`'s positions name (`MASK` turns a position
/// into a row); `None` at a NULL, a cleared validity flag.
fn image_words<const MASK: u32>(
    words: Vec<u64>,
    run: &[u32],
    (values, valid): &TypedColumn,
) -> Option<(KeyKind, Vec<u64>)> {
    fn extend<const MASK: u32>(
        mut words: Vec<u64>,
        run: &[u32],
        valid: &[bool],
        word: impl Fn(usize) -> u64,
    ) -> Option<Vec<u64>> {
        for &p in run {
            let p = (p & MASK) as usize;
            if !valid[p] {
                return None;
            }
            words.push(word(p));
        }
        Some(words)
    }
    Some(match values {
        Column::Bool(v) => (
            KeyKind::Bool,
            extend::<MASK>(words, run, valid, |p| u64::from(v[p]))?,
        ),
        Column::Int(v) => (
            KeyKind::Int,
            extend::<MASK>(words, run, valid, |p| int_word(v[p]))?,
        ),
        Column::Timestamp(v) => (
            KeyKind::Timestamp,
            extend::<MASK>(words, run, valid, |p| int_word(v[p]))?,
        ),
        Column::Float(v) => (
            KeyKind::Float,
            extend::<MASK>(words, run, valid, |p| float_word(v[p]))?,
        ),
        Column::Str(_) | Column::Bytes(_) => return None,
    })
}

/// Column `column` of the rows `input` reads as one order-preserving
/// word per row, or `None` when the column is not typed over them: out
/// of the images over a selection, a cell at a time over a slice's
/// rows. The one place the encoding of the module docs is
/// written.
fn key_words(input: Selected<'_>, column: usize) -> Option<(KeyKind, Vec<u64>)> {
    if input.is_empty() {
        return None;
    }
    let at = input.source_column(column);
    if let Some(positions) = input.positions {
        match input.parts {
            Parts::One(ColumnSource::Image(image)) => {
                let words = Vec::with_capacity(positions.len());
                return image_words::<{ u32::MAX }>(words, positions, &image.columns()[at]);
            }
            Parts::One(ColumnSource::Rows(_)) => {}
            Parts::Many(parts) => {
                // A run at a time, each over its own snapshot.
                let (mut words, mut kind) = (Vec::with_capacity(positions.len()), None);
                for (part, run) in part_runs(positions) {
                    let image = &parts[part].columns()[at];
                    let run_kind;
                    (run_kind, words) = image_words::<LOCAL_MASK>(words, run, image)?;
                    // The snapshots of one selection are of one table.
                    if kind.replace(run_kind).is_some_and(|k| k != run_kind) {
                        return None;
                    }
                }
                return Some((kind?, words));
            }
        }
    }
    // The first row's kind is the column's; a row of another ends it.
    let (mut kind, mut words) = (None, Vec::with_capacity(input.len()));
    let typed = input.try_cells(column, |_, v| {
        let (k, word) = match v {
            ValueRef::Bool(b) => (KeyKind::Bool, u64::from(b)),
            ValueRef::Int(v) => (KeyKind::Int, int_word(v)),
            ValueRef::Timestamp(v) => (KeyKind::Timestamp, int_word(v)),
            ValueRef::Float(x) => (KeyKind::Float, float_word(x)),
            ValueRef::Null | ValueRef::Str(_) | ValueRef::Bytes(_) => return Err(()),
        };
        if *kind.get_or_insert(k) != k {
            return Err(());
        }
        words.push(word);
        Ok(())
    });
    typed.ok()?;
    Some((kind?, words))
}

/// Stable multi-key sort.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown key columns, and
/// [`Error::Invalid`] as [`Selected::all`] does.
pub fn sort_rows(schema: &Schema, rows: Vec<Row>, keys: &[SortKey]) -> Result<Vec<Row>> {
    let order = sort_at(schema, Selected::all(&rows)?, keys, None)?;
    // Each row moves once: the order names every position once.
    let mut slots: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    Ok(order
        .iter()
        .filter_map(|&p| slots[p as usize].take())
        .collect())
}

/// The source positions of the rows `input` reads, in the stable order
/// of `keys`. With `top = Some(n)` only the first `n` are in that order
/// and the rest follow them in none in particular: every position is
/// there once either way, so the output holds the input's rows, and
/// the `n` a `Limit n` keeps are the right ones in the right order.
///
/// One to three typed keys sort `(key words…, index)` records, the
/// descending words complemented; any other keys sort the indices by
/// `Value` order, the index as the last key. The index makes every
/// record distinct, so an unstable sort — or a partial selection
/// (`select_nth_unstable`) and then a sort of its prefix — leaves equal
/// keys in input order: the stable order.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown key columns.
pub fn sort_at(
    schema: &Schema,
    input: Selected<'_>,
    keys: &[SortKey],
    top: Option<usize>,
) -> Result<Vec<u32>> {
    let mut order = sort_reads(schema, input, keys, top)?;
    for i in &mut order {
        *i = input.position(*i as usize);
    }
    Ok(order)
}

/// [`sort_at`]'s order as indices into the rows read, not positions.
fn sort_reads(
    schema: &Schema,
    input: Selected<'_>,
    keys: &[SortKey],
    top: Option<usize>,
) -> Result<Vec<u32>> {
    let resolved: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| Ok((schema.require(&k.column)?, k.ascending)))
        .collect::<Result<_>>()?;
    // A record's width is fixed at compile time: one to three keys sort
    // as words, more (or none) take the generic body.
    if (1..=3).contains(&resolved.len()) {
        let words: Option<Vec<Vec<u64>>> = resolved
            .iter()
            .map(|&(idx, asc)| {
                let (_, mut words) = key_words(input, idx)?;
                if !asc {
                    words.iter_mut().for_each(|w| *w = !*w);
                }
                Some(words)
            })
            .collect();
        if let Some(words) = words {
            return Ok(match words.len() {
                1 => order_by_words::<2>(input, &words, top),
                2 => order_by_words::<3>(input, &words, top),
                _ => order_by_words::<4>(input, &words, top),
            });
        }
    }
    let columns: Vec<usize> = resolved.iter().map(|&(idx, _)| idx).collect();
    let (cells, k) = (input.cells(&columns), columns.len());
    let mut order: Vec<u32> = (0..input.len() as u32).collect();
    order_first(&mut order, top, |&a, &b| {
        let (ka, kb) = (&cells[a as usize * k..], &cells[b as usize * k..]);
        (resolved.iter().zip(ka.iter().zip(kb)))
            .map(|(&(_, asc), (x, y))| {
                let ord = x.cmp(y);
                if asc {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or_else(|| a.cmp(&b))
    });
    Ok(order)
}

/// [`sort_reads`] over typed keys: `words` holds the `N - 1` key
/// columns (descending ones already complemented), and a record ends in
/// its row's index. The records sit in one contiguous buffer.
fn order_by_words<const N: usize>(
    input: Selected<'_>,
    words: &[Vec<u64>],
    top: Option<usize>,
) -> Vec<u32> {
    let mut records: Vec<[u64; N]> = (0..input.len())
        .map(|i| {
            let mut record = [i as u64; N];
            for (word, column) in record.iter_mut().zip(words) {
                *word = column[i];
            }
            record
        })
        .collect();
    order_first(&mut records, top, Ord::cmp);
    records.iter().map(|record| record[N - 1] as u32).collect()
}

/// Sorts `items`, no two of which are equal under `cmp`; with `top =
/// Some(n)` short of their number, moves the `n` least to the front in
/// order and leaves the rest after them in any order.
fn order_first<T>(items: &mut [T], top: Option<usize>, mut cmp: impl FnMut(&T, &T) -> Ordering) {
    match top {
        Some(n) if n < items.len() => {
            items.select_nth_unstable_by(n, &mut cmp);
            items[..n].sort_unstable_by(cmp);
        }
        _ => items.sort_unstable_by(cmp),
    }
}

/// Which columns of a join's output get built, and what they are
/// called: one `(from the right input?, position there)` pair per output
/// column. Every join body emits through [`JoinEmit::rows`].
struct JoinEmit {
    schema: Schema,
    columns: Vec<(bool, usize)>,
}

impl JoinEmit {
    /// The emit of `demand`, or of every column (`left` then `right`,
    /// under [`Schema::join`]'s names) when there is none.
    ///
    /// A demanded name is a name of the join of the inputs' *full*
    /// schemas, and `left` / `right` may be those schemas with columns
    /// nobody reads left out (a migration ships only what is read). So
    /// `x` is the left's `x` when `left` has one; else the right's own
    /// `x`; else, for `x = y_r` (or `y_r2`, …), the right's `y` —
    /// renamed because the full join schema already had a `y` (or a
    /// `y_r`, …) where it went, shipped or not.
    fn new(left: &Schema, right: &Schema, demand: Option<&[String]>) -> Result<JoinEmit> {
        let Some(demand) = demand else {
            let lefts = (0..left.arity()).map(|i| (false, i));
            return Ok(JoinEmit {
                schema: left.join(right),
                columns: lefts.chain((0..right.arity()).map(|i| (true, i))).collect(),
            });
        };
        let mut fields = Vec::with_capacity(demand.len());
        let mut columns = Vec::with_capacity(demand.len());
        for name in demand {
            let (from_right, at) = if let Some(at) = left.index_of(name) {
                (false, at)
            } else if let Some(at) = right.index_of(name) {
                (true, at)
            } else {
                let own = Schema::unsuffixed(name).and_then(|own| right.index_of(own));
                (
                    true,
                    own.ok_or_else(|| Error::ColumnNotFound(name.clone()))?,
                )
            };
            let source = if from_right { right } else { left };
            let mut field = source.fields()[at].clone();
            field.name.clone_from(name);
            fields.push(field);
            columns.push((from_right, at));
        }
        Ok(JoinEmit {
            schema: Schema::from_fields(fields),
            columns,
        })
    }

    /// The join's output: its schema, the rows of the pairs `(lefts[k],
    /// rights[k])` of read indices into `left` and `right` (a right
    /// [`PAD`] stays NULL), filled into one slab a column at a time, and
    /// their payload bytes.
    fn rows(
        self,
        (left, lefts): (Selected<'_>, &[u32]),
        (right, rights): (Selected<'_>, &[u32]),
    ) -> (Schema, Vec<Row>, u64) {
        let width = self.columns.len();
        let (out, bytes) = filled(lefts.len(), width, |slab| {
            for (offset, &(from_right, at)) in self.columns.iter().enumerate() {
                if from_right {
                    right.gather_into(at, rights, slab, width, offset);
                } else {
                    left.gather_into(at, lefts, slab, width, offset);
                }
            }
        });
        (self.schema, out, bytes)
    }
}

/// Hash join on single-column equality.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown join columns.
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    left_schema: &Schema,
    left: &[Row],
    right_schema: &Schema,
    right: &[Row],
    left_on: &str,
    right_on: &str,
    kind: JoinKind,
) -> Result<(Schema, Vec<Row>)> {
    let (schema, rows, _) = hash_join_with(
        left_schema,
        Selected::all(left)?,
        right_schema,
        Selected::all(right)?,
        left_on,
        right_on,
        kind,
        None,
        |_| {},
    )?;
    Ok((schema, rows))
}

/// [`hash_join`], also returning how many output rows each `left`
/// (probe) row produced, in probe order: the output rows of probe row
/// `i` are the contiguous chunk of length `counts[i]` after those of
/// the rows before it. A shuffled join's barrier splices its
/// per-destination outputs back into the gathered probe order by these
/// chunks, and takes them from the join it ran rather than from a
/// second build of the same table.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown join columns.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_counted(
    left_schema: &Schema,
    left: &[Row],
    right_schema: &Schema,
    right: &[Row],
    left_on: &str,
    right_on: &str,
    kind: JoinKind,
) -> Result<(Schema, Vec<Row>, Vec<usize>)> {
    let mut counts = Vec::with_capacity(left.len());
    let (schema, rows, _) = hash_join_with(
        left_schema,
        Selected::all(left)?,
        right_schema,
        Selected::all(right)?,
        left_on,
        right_on,
        kind,
        None,
        |n| counts.push(n),
    )?;
    Ok((schema, rows, counts))
}

/// The one hash-join body, over the rows `left` and `right` read: finds
/// the matches over typed key words when both key columns have them —
/// out of the typed image over a selection — and over `&Value` through
/// the rows otherwise, then builds the output rows of the matched pairs
/// alone — only the columns `demand` names (names of the join of the
/// inputs' full schemas, which `left_schema` / `right_schema` may be
/// narrowed forms of; see the demand pass, rewrite rule 7), every
/// column when it is `None` — and tells `produced` after each `left` row
/// how many output rows it added. Returns the output schema, the rows
/// and the sum of their [`Row::byte_size`], added up as they are built.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown join columns and for a
/// demanded name neither input has.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_with(
    left_schema: &Schema,
    left: Selected<'_>,
    right_schema: &Schema,
    right: Selected<'_>,
    left_on: &str,
    right_on: &str,
    kind: JoinKind,
    demand: Option<&[String]>,
    mut produced: impl FnMut(usize),
) -> Result<(Schema, Vec<Row>, u64)> {
    let li = left_schema.require(left_on)?;
    let ri = right_schema.require(right_on)?;
    let emit = JoinEmit::new(left_schema, right_schema, demand)?;

    let matches = indexed_matches(left, li, right, ri).unwrap_or_else(|| {
        match join_words(left, li, right, ri) {
            Some((lw, rw)) => join_matches(lw.into_iter().map(Some), rw.into_iter().map(Some)),
            None => join_matches(value_keys(left, li), value_keys(right, ri)),
        }
    });

    // The pairs' read indices: each left row once per match, beside
    // its matches; an unmatched one of a left outer join beside a pad.
    let padded = match kind {
        JoinKind::Inner => 0,
        JoinKind::LeftOuter => matches.counts.iter().filter(|&&n| n == 0).count(),
    };
    let mut lefts = Vec::with_capacity(matches.right.len() + padded);
    let mut rights = Vec::with_capacity(matches.right.len() + padded);
    let mut matched = matches.right.iter();
    for (i, &n) in (0u32..).zip(&matches.counts) {
        let pad = n == 0 && kind == JoinKind::LeftOuter;
        let pairs = if pad { 1 } else { n };
        lefts.resize(lefts.len() + pairs, i);
        if pad {
            rights.push(PAD);
        } else {
            rights.extend(matched.by_ref().take(n));
        }
        produced(pairs);
    }
    Ok(emit.rows((left, &lefts), (right, &rights)))
}

/// The key words of both sides of a join, comparable with each other:
/// two typed columns of one kind as they are, an `Int` column against a
/// `Float` one with each int re-keyed as `(v as f64)` — the comparison
/// `Value::cmp` makes between the two. `None` when either column is not
/// typed, or the kinds can hold no equal pair (the generic body finds
/// no match there either).
fn join_words(
    left: Selected<'_>,
    li: usize,
    right: Selected<'_>,
    ri: usize,
) -> Option<(Vec<u64>, Vec<u64>)> {
    let (lk, mut lw) = key_words(left, li)?;
    let (rk, mut rw) = key_words(right, ri)?;
    let as_float = |words: &mut Vec<u64>| {
        for w in words {
            *w = float_word((*w ^ SIGN) as i64 as f64);
        }
    };
    match (lk, rk) {
        _ if lk == rk => {}
        (KeyKind::Int, KeyKind::Float) => as_float(&mut lw),
        (KeyKind::Float, KeyKind::Int) => as_float(&mut rw),
        _ => return None,
    }
    Some((lw, rw))
}

/// The join keys of column `on` of the rows `input` reads, as cells (a
/// string read in place): `None` for NULL, which joins nothing.
fn value_keys<'a>(
    input: Selected<'a>,
    on: usize,
) -> impl DoubleEndedIterator<Item = Option<ValueRef<'a>>> + ExactSizeIterator + 'a {
    let cells = input.cells(&[on]);
    cells.into_iter().map(|v| Some(v).filter(|v| !v.is_null()))
}

/// One run of rows read that a kept key index serves: the index, built
/// over every row of the run's snapshot, the read index of the run's
/// first row, and — when the run is one whole destination of a hash
/// layout the snapshot keeps, not every row of it — that layout and
/// destination (module docs, "Key words").
struct IndexedRun<'a, K = u64> {
    index: &'a KeyIndex<K>,
    offset: u32,
    destination: Option<(Arc<HashLayout>, u32)>,
}

impl<'a, K: Hash + Eq> IndexedRun<'a, K> {
    /// Every row of one snapshot, each read at its own index.
    fn whole(index: &'a KeyIndex<K>) -> Self {
        IndexedRun {
            index,
            offset: 0,
            destination: None,
        }
    }

    /// The read indices of the run's rows holding `key`, in order: each
    /// row of the snapshot's chain for `key` the run holds — every one,
    /// or those routed to its destination — read at the run's offset
    /// plus the row itself, or its rank there.
    #[inline]
    fn reads(&self, key: &K) -> impl Iterator<Item = u32> + '_ {
        self.index
            .rows(key)
            .filter_map(move |row| match &self.destination {
                None => Some(self.offset + row),
                Some((layout, d)) => {
                    let row = row as usize;
                    (layout.destination(row) == *d).then(|| self.offset + layout.rank(row))
                }
            })
    }
}

/// The kind of words a typed key column holds; `None` for strings and
/// byte arrays.
fn key_kind(values: &Column) -> Option<KeyKind> {
    match values {
        Column::Bool(_) => Some(KeyKind::Bool),
        Column::Int(_) => Some(KeyKind::Int),
        Column::Timestamp(_) => Some(KeyKind::Timestamp),
        Column::Float(_) => Some(KeyKind::Float),
        Column::Str(_) | Column::Bytes(_) => None,
    }
}

/// The runs of column `column` of the rows `input` reads that kept key
/// indexes serve, in read order, and the kind of their words (module
/// docs, "Key words"): every row of one snapshot that keeps key indexes
/// — a table's — in order, one run; or, a part's run at a time, the
/// rows of one whole destination of a hash layout the part's snapshot
/// keeps of the column, in order. Each snapshot's index is the one it
/// keeps, or one built now and kept. `None` for any other input, and for
/// a column that is not typed over a snapshot.
fn indexed_runs(input: Selected<'_>, column: usize) -> Option<(KeyKind, Vec<IndexedRun<'_>>)> {
    let positions = input.positions?;
    let at = input.source_column(column);
    let runs: Vec<(&Batch, &[u32], u32)> = match input.parts {
        Parts::One(ColumnSource::Image(image)) => vec![(image, positions, u32::MAX)],
        Parts::One(ColumnSource::Rows(_)) => return None,
        Parts::Many(parts) => part_runs(positions)
            .map(|(part, run)| (&*parts[part], run, LOCAL_MASK))
            .collect(),
    };
    // Every run is served, or none is: check them all before building
    // any snapshot's index.
    let mut kind = None;
    let mut served = Vec::with_capacity(runs.len());
    for (image, run, mask) in runs {
        if !image.keeps_key_indexes() {
            return None;
        }
        let run_kind = key_kind(image.column(at))?;
        // The snapshots of one selection are of one table.
        if kind.replace(run_kind).is_some_and(|k| k != run_kind) {
            return None;
        }
        let rows = || run.iter().map(|&p| (p & mask) as usize);
        let every_row =
            mask == u32::MAX && run.len() == image.num_rows() && rows().eq(0..run.len());
        let destination = if every_row {
            None
        } else {
            let whole = |layout: &Arc<HashLayout>| {
                Some((Arc::clone(layout), layout.whole_destination(rows())?))
            };
            Some(image.find_hash_layout(at, whole)?)
        };
        served.push((image, run.len(), destination));
    }
    let mut offset = 0u32;
    let indexed = (served.into_iter())
        .map(|(image, rows, destination)| {
            let run = IndexedRun {
                index: image.key_index(at, column_index)?,
                offset,
                destination,
            };
            offset = offset.checked_add(u32::try_from(rows).ok()?)?;
            Some(run)
        })
        .collect::<Option<Vec<_>>>()?;
    Some((kind?, indexed))
}

/// The key index of a whole column, a word per row (module docs, "Key
/// words"), read straight off the image; `None` when the column is not
/// typed — it holds strings or byte arrays, or a NULL.
fn column_index((values, valid): &TypedColumn) -> Option<KeyIndex> {
    fn of<T: Copy>(values: &[T], word: impl Fn(T) -> u64) -> KeyIndex {
        KeyIndex::build(values.iter().map(|&v| Some(word(v))))
    }
    if valid.contains(&false) {
        return None;
    }
    Some(match values {
        Column::Bool(v) => of(v, u64::from),
        Column::Int(v) | Column::Timestamp(v) => of(v, int_word),
        Column::Float(v) => of(v, float_word),
        Column::Str(_) | Column::Bytes(_) => return None,
    })
}

/// The matches of a join with one side served by kept key indexes
/// ([`indexed_runs`]; the right side when both are), probed with the
/// other side's key words. `None` when neither side is, or the probe
/// keys are not typed words of the indexes' kind: the join then builds a
/// table of its own.
fn indexed_matches(
    left: Selected<'_>,
    li: usize,
    right: Selected<'_>,
    ri: usize,
) -> Option<Matches> {
    let probed = |probe, pi, indexed, ii| {
        let (kind, runs) = indexed_runs(indexed, ii)?;
        let (probe_kind, words) = key_words(probe, pi)?;
        (probe_kind == kind).then_some((runs, words))
    };
    if let Some((runs, words)) = probed(left, li, right, ri) {
        return Some(probe_left(words.into_iter().map(Some), &runs));
    }
    let (runs, words) = probed(right, ri, left, li)?;
    Some(probe_right(left.len(), &runs, words.into_iter().map(Some)))
}

/// The matches of an equi-join, left-major.
struct Matches {
    /// How many right rows each left row matched.
    counts: Vec<usize>,
    /// The matched right rows' read indices: left row by left row,
    /// within a left row in right order.
    right: Vec<u32>,
}

/// The matches of `left`'s keys, probed in order against `runs`, the
/// right side's key index runs in read order: left-major as they are
/// found, each left row's in right order (`None` matches nothing).
fn probe_left<K: Hash + Eq>(
    left: impl ExactSizeIterator<Item = Option<K>>,
    runs: &[IndexedRun<'_, K>],
) -> Matches {
    let mut counts = Vec::with_capacity(left.len());
    let mut right = Vec::with_capacity(left.len());
    for key in left {
        let before = right.len();
        if let Some(key) = key {
            for run in runs {
                right.extend(run.reads(&key));
            }
        }
        counts.push(right.len() - before);
    }
    Matches { counts, right }
}

/// The matches of `right`'s keys against `runs`, the key index runs of
/// the `left_rows` left rows, put in left-major order. Probed a right row
/// at a time, the pairs are found right-major: count each left row's
/// matches, turn the counts into each row's first slot, and place the
/// pairs — a left row's slots fill in the order its pairs were found,
/// right order.
fn probe_right<K: Hash + Eq>(
    left_rows: usize,
    runs: &[IndexedRun<'_, K>],
    right: impl Iterator<Item = Option<K>>,
) -> Matches {
    let mut counts = vec![0; left_rows];
    let mut pairs = Vec::new();
    for (r, key) in (0u32..).zip(right) {
        let Some(key) = key else { continue };
        for l in runs.iter().flat_map(|run| run.reads(&key)) {
            counts[l as usize] += 1;
            pairs.push((l, r));
        }
    }
    let mut slot: Vec<usize> = counts
        .iter()
        .scan(0, |end, &n| {
            *end += n;
            Some(*end - n)
        })
        .collect();
    let mut matched = vec![0; pairs.len()];
    for (l, r) in pairs {
        matched[slot[l as usize]] = r;
        slot[l as usize] += 1;
    }
    Matches {
        counts,
        right: matched,
    }
}

/// Matches `left` keys to equal `right` keys (`None` matches nothing).
/// The key index is built over whichever side has fewer rows and probed
/// with the other; the result is the same either way.
fn join_matches<K: Hash + Eq>(
    left: impl DoubleEndedIterator<Item = Option<K>> + ExactSizeIterator,
    right: impl DoubleEndedIterator<Item = Option<K>> + ExactSizeIterator,
) -> Matches {
    if right.len() <= left.len() {
        let index = KeyIndex::build(right);
        return probe_left(left, &[IndexedRun::whole(&index)]);
    }
    let left_rows = left.len();
    let index = KeyIndex::build(left);
    probe_right(left_rows, &[IndexedRun::whole(&index)], right)
}

/// The key cells of one row read, compared in place, beside their
/// hash: grouping looks a row up by this view and builds nothing per
/// row, and a growing map re-buckets its keys by the stored hash instead
/// of reading every first row again.
#[derive(Clone, Copy)]
struct GroupKey<'k, 'a> {
    hash: u64,
    cells: &'k [ValueRef<'a>],
}

impl std::hash::Hash for GroupKey<'_, '_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for GroupKey<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.cells == other.cells
    }
}

impl Eq for GroupKey<'_, '_> {}

/// An empty grouping map with room reserved for `rows` input rows. A
/// map that starts at nothing regrows, and rehashes, about a dozen times
/// on its way to five thousand groups; reserved from the input length
/// it never does, and an unfilled table costs only its control bytes.
/// The reservation is bounded in bytes (a quarter of a megabyte of
/// entries), so that a huge input of few groups does not ask for a
/// table sized for a group per row.
fn group_map<K>(rows: usize) -> HashMap<K, usize, FxBuildHasher> {
    const RESERVE_BYTES: usize = 1 << 18;
    let entries = RESERVE_BYTES / std::mem::size_of::<(K, usize)>();
    HashMap::with_capacity_and_hasher(rows.min(entries), FxBuildHasher::default())
}

/// The group of every row `input` reads, by key columns `columns`,
/// groups numbered in first-seen order, and the index of each group's
/// first row: the generic body, over the key cells.
fn group_cells(input: Selected<'_>, columns: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let (cells, k) = (input.cells(columns), columns.len());
    let mut index = group_map::<GroupKey>(input.len());
    let mut firsts = Vec::new();
    let ids = (0..input.len())
        .map(|row| {
            let cells = &cells[row * k..][..k];
            let key = GroupKey {
                hash: FxHasher::hash_all(cells),
                cells,
            };
            *index.entry(key).or_insert_with(|| {
                firsts.push(row);
                firsts.len() - 1
            })
        })
        .collect();
    (ids, firsts)
}

/// Phase 1 of [`group_by_at`]: the group of every row read, groups
/// numbered in first-seen order, and the index of each group's first
/// row. One typed key column is grouped by its words, anything else by
/// [`group_cells`].
fn number_groups(input: Selected<'_>, key_idx: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let words = match key_idx {
        // No key: every row is in the one group (no rows, no group).
        [] => return (vec![0; input.len()], (0..input.len().min(1)).collect()),
        [column] => key_words(input, *column),
        _ => None,
    };
    let Some((_, words)) = words else {
        return group_cells(input, key_idx);
    };
    let mut firsts = Vec::new();
    let mut index = group_map::<u64>(input.len());
    let ids = (words.iter().enumerate())
        .map(|(i, &word)| {
            let fresh = index.len();
            let group = *index.entry(word).or_insert(fresh);
            if group == fresh {
                firsts.push(i);
            }
            group
        })
        .collect();
    (ids, firsts)
}

/// Merges per-shard partial-aggregation states back into the final
/// group-by result: `partial_rows` are the per-shard outputs of a
/// [`group_by`] over the *partial* aggregate list (see
/// `pspp_ir::partial_agg_specs` — one column per original aggregate,
/// two for `Avg`), concatenated in shard order; `aggs` are the
/// original aggregates. Groups finalize in first-seen order over the
/// concatenated partials, which equals the first-seen order over the
/// gathered input rows — so for exactly-representable sums (integer
/// columns) the merge is byte-identical to a single-site [`group_by`].
/// A keyless partial over no rows (counts `0`, sums NULL) adds nothing,
/// and when every shard's was one the merge returns [`group_by`]'s row
/// for no rows.
///
/// # Errors
///
/// Returns [`Error::SchemaMismatch`] when the partial schema's arity
/// does not match the aggregate layout or a partial state has the
/// wrong type.
pub fn merge_group_partials(
    partial_schema: &Schema,
    partial_rows: &[Row],
    key_count: usize,
    aggs: &[AggregateSpec],
) -> Result<(Schema, Vec<Row>)> {
    use pspp_common::{DataType, Field};

    let state_width = |a: &AggregateSpec| if a.agg == Aggregate::Avg { 2 } else { 1 };
    let expected = key_count + aggs.iter().map(state_width).sum::<usize>();
    if partial_schema.arity() != expected {
        return Err(Error::SchemaMismatch(format!(
            "partial schema has {} columns, aggregate layout needs {expected}",
            partial_schema.arity()
        )));
    }
    let mut out_fields: Vec<Field> = partial_schema.fields()[..key_count].to_vec();
    let mut col = key_count;
    for a in aggs {
        let dt = match a.agg {
            Aggregate::Count | Aggregate::CountNonNull => DataType::Int,
            // The extremum of the partial extrema, of their type.
            Aggregate::Min | Aggregate::Max => partial_schema.fields()[col].data_type,
            Aggregate::Sum | Aggregate::Avg => DataType::Float,
        };
        out_fields.push(Field::new(a.output.clone(), dt));
        col += state_width(a);
    }
    let out_schema = Schema::from_fields(out_fields);

    /// One aggregate's merge state.
    #[derive(Clone)]
    enum MergeAcc {
        /// Count / CountNonNull: running integer total.
        Ints(i64),
        /// Sum: running float total (None until a non-null partial —
        /// a shard with no rows ships a NULL sum).
        Floats(Option<f64>),
        /// Avg: (sum of partial sums, total non-null count).
        Ratio(f64, i64),
        /// Min/Max: current extremum (None until a non-null partial).
        Extremum(Option<Value>),
    }
    if key_count == 0 && partial_rows.is_empty() {
        return Ok((out_schema, vec![empty_aggregate(aggs)]));
    }
    let fresh = |a: &AggregateSpec| match a.agg {
        Aggregate::Count | Aggregate::CountNonNull => MergeAcc::Ints(0),
        Aggregate::Sum => MergeAcc::Floats(None),
        Aggregate::Avg => MergeAcc::Ratio(0.0, 0),
        Aggregate::Min | Aggregate::Max => MergeAcc::Extremum(None),
    };
    let int_state = |v: &Value| {
        v.as_i64()
            .ok_or_else(|| Error::SchemaMismatch(format!("expected integer partial, got {v:?}")))
    };
    let float_state = |v: &Value| {
        v.as_f64()
            .ok_or_else(|| Error::SchemaMismatch(format!("expected numeric partial, got {v:?}")))
    };

    let key_columns: Vec<usize> = (0..key_count).collect();
    let (ids, firsts) = group_cells(Selected::all(partial_rows)?, &key_columns);
    // One state per (group, aggregate), group-major.
    let mut accs: Vec<MergeAcc> = Vec::new();
    for (row, g) in partial_rows.iter().zip(ids) {
        if g * aggs.len() == accs.len() {
            accs.extend(aggs.iter().map(fresh));
        }
        let mut col = key_count;
        for (acc, spec) in accs[g * aggs.len()..].iter_mut().zip(aggs) {
            match acc {
                MergeAcc::Ints(n) => *n += int_state(&row[col])?,
                MergeAcc::Floats(s) if !row[col].is_null() => {
                    *s = Some(s.unwrap_or(0.0) + float_state(&row[col])?);
                }
                MergeAcc::Ratio(s, n) => {
                    if !row[col].is_null() {
                        *s += float_state(&row[col])?;
                    }
                    *n += int_state(&row[col + 1])?;
                }
                MergeAcc::Floats(_) => {}
                MergeAcc::Extremum(m) => {
                    let v = &row[col];
                    if !v.is_null() {
                        let better = match (m.as_ref(), spec.agg) {
                            (None, _) => true,
                            (Some(cur), Aggregate::Min) => v < cur,
                            (Some(cur), _) => v > cur,
                        };
                        if better {
                            *m = Some(v.clone());
                        }
                    }
                }
            }
            col += state_width(spec);
        }
    }

    let width = key_count + aggs.len();
    let cells = row_major(firsts.len(), width, |g, c| match c.checked_sub(key_count) {
        None => partial_rows[firsts[g]][c].clone(),
        Some(a) => match &mut accs[g * aggs.len() + a] {
            MergeAcc::Ints(n) => Value::Int(*n),
            MergeAcc::Floats(s) => s.map_or(Value::Null, Value::Float),
            MergeAcc::Ratio(_, 0) => Value::Null,
            MergeAcc::Ratio(s, n) => Value::Float(*s / *n as f64),
            MergeAcc::Extremum(m) => m.take().unwrap_or(Value::Null),
        },
    });
    let out = Row::slab(firsts.len(), cells);
    Ok((out_schema, out))
}

/// Sort-merge join on single-column equality: sorts both inputs by the
/// join key, then merges. This is the §III worked example's operator
/// ("DB1 performs a sort-merge on 'Date'").
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown join columns.
pub fn sort_merge_join(
    left_schema: &Schema,
    left: Vec<Row>,
    right_schema: &Schema,
    right: Vec<Row>,
    left_on: &str,
    right_on: &str,
) -> Result<(Schema, Vec<Row>)> {
    let (schema, rows, _) = sort_merge_join_with(
        left_schema,
        Selected::all(&left)?,
        right_schema,
        Selected::all(&right)?,
        left_on,
        right_on,
        None,
    )?;
    Ok((schema, rows))
}

/// [`sort_merge_join`] over the rows `left` and `right` read, building
/// only the columns `demand` names and returning the output's byte size
/// with it, as [`hash_join_with`] does. Each side is put in key order by
/// [`sort_at`]'s sort — indices of the rows read, not rows — the merge
/// compares the keys at them, and the matched pairs are built a column
/// at a time.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown join columns and for a
/// demanded name neither input has.
pub fn sort_merge_join_with(
    left_schema: &Schema,
    left: Selected<'_>,
    right_schema: &Schema,
    right: Selected<'_>,
    left_on: &str,
    right_on: &str,
    demand: Option<&[String]>,
) -> Result<(Schema, Vec<Row>, u64)> {
    let li = left_schema.require(left_on)?;
    let ri = right_schema.require(right_on)?;
    let emit = JoinEmit::new(left_schema, right_schema, demand)?;
    /// The rows read in key order, with their keys.
    fn ordered<'a>(
        input: Selected<'a>,
        schema: &Schema,
        on: &str,
        at: usize,
    ) -> Result<(Vec<u32>, Vec<ValueRef<'a>>)> {
        let order = sort_reads(schema, input, &[SortKey::asc(on)], None)?;
        let at = input.source_column(at);
        let keys = order.iter().map(|&i| input.cell(i as usize, at)).collect();
        Ok((order, keys))
    }
    let (lorder, lkeys) = ordered(left, left_schema, left_on, li)?;
    let (rorder, rkeys) = ordered(right, right_schema, right_on, ri)?;

    let (mut lefts, mut rights) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0usize, 0usize);
    while i < lkeys.len() && j < rkeys.len() {
        let (lv, rv) = (lkeys[i], rkeys[j]);
        if lv.is_null() {
            i += 1;
            continue;
        }
        if rv.is_null() {
            j += 1;
            continue;
        }
        match lv.cmp(&rv) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Pair up the cross product of the equal runs.
                let run = j..j + rkeys[j..].iter().take_while(|&&k| k == rv).count();
                while i < lkeys.len() && lkeys[i] == rv {
                    lefts.resize(lefts.len() + run.len(), lorder[i]);
                    rights.extend_from_slice(&rorder[run.clone()]);
                    i += 1;
                }
                j = run.end;
            }
        }
    }
    Ok(emit.rows((left, &lefts), (right, &rights)))
}

/// Group-by aggregation.
///
/// Output schema is `keys ++ aggregate outputs`; the counts yield
/// `Int`, `Sum` and `Avg` `Float`, and `Min` and `Max` the type of the
/// column they read. Over a group whose column holds only NULLs, `Sum`,
/// `Avg`, `Min` and `Max` are NULL; without keys, no rows still make
/// one group: counts `0`, every other aggregate NULL.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown columns,
/// [`Error::SchemaMismatch`] when aggregating a non-numeric column, and
/// [`Error::Invalid`] as [`Selected::all`] does.
pub fn group_by(
    schema: &Schema,
    rows: &[Row],
    keys: &[&str],
    aggs: &[AggregateSpec],
) -> Result<(Schema, Vec<Row>)> {
    let (schema, rows, _) = group_by_at(schema, Selected::all(rows)?, keys, aggs)?;
    Ok((schema, rows))
}

/// [`group_by`] over the rows `input` reads, also returning the
/// output's payload bytes, summed as its rows are built. A keyless
/// `COUNT(*)` reads no row at all.
///
/// # Errors
///
/// Returns [`Error::ColumnNotFound`] for unknown columns, or
/// [`Error::SchemaMismatch`] when aggregating a non-numeric column.
pub fn group_by_at(
    schema: &Schema,
    input: Selected<'_>,
    keys: &[&str],
    aggs: &[AggregateSpec],
) -> Result<(Schema, Vec<Row>, u64)> {
    use pspp_common::{DataType, Field};

    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| schema.require(k))
        .collect::<Result<_>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| {
            if a.agg == Aggregate::Count {
                Ok(None)
            } else {
                schema.require(&a.column).map(Some)
            }
        })
        .collect::<Result<_>>()?;

    let mut out_fields: Vec<Field> = key_idx
        .iter()
        .map(|&i| schema.fields()[i].clone())
        .collect();
    for (a, idx) in aggs.iter().zip(&agg_idx) {
        let dt = match (a.agg, idx) {
            (Aggregate::Count | Aggregate::CountNonNull, _) => DataType::Int,
            // The extremum is one of the column's values.
            (Aggregate::Min | Aggregate::Max, Some(i)) => schema.fields()[*i].data_type,
            _ => DataType::Float,
        };
        out_fields.push(Field::new(a.output.clone(), dt));
    }
    let out_schema = Schema::from_fields(out_fields);

    if key_idx.is_empty() && input.is_empty() {
        let row = empty_aggregate(aggs);
        let bytes = row.byte_size() as u64;
        return Ok((out_schema, vec![row], bytes));
    }
    let (ids, firsts) = number_groups(input, &key_idx);
    let groups = firsts.len();
    let mut group_rows = vec![0i64; groups];
    for &g in &ids {
        group_rows[g] += 1;
    }
    // Phase 2. One state per aggregate, a slot per group; one pass over
    // the column per aggregate, so a group's values still add up in row
    // order.
    let mut states = (aggs.iter().zip(&agg_idx))
        .map(|(spec, idx)| {
            Ok(match (spec.agg, *idx) {
                (Aggregate::Sum | Aggregate::Avg, Some(column)) => {
                    let (sums, counts) = sums(input, column, &ids, groups)?;
                    GroupState::Sums(sums, counts)
                }
                (Aggregate::CountNonNull, Some(column)) => {
                    GroupState::NonNull(non_null(input, column, &ids, groups))
                }
                (Aggregate::Min | Aggregate::Max, Some(column)) => {
                    GroupState::Extrema(extrema(input, column, &ids, groups, spec.agg))
                }
                _ => GroupState::Count,
            })
        })
        .collect::<Result<Vec<_>>>()?;

    // A typed key is read out of the image: no row is touched.
    let firsts: Vec<u32> = firsts.iter().map(|&i| i as u32).collect();
    let width = key_idx.len() + aggs.len();
    let (out, bytes) = filled(groups, width, |slab| {
        for (offset, &c) in key_idx.iter().enumerate() {
            input.gather_into(c, &firsts, slab, width, offset);
        }
        for (a, state) in states.iter_mut().enumerate() {
            let slots = slab.iter_mut().skip(key_idx.len() + a).step_by(width);
            for (g, slot) in slots.enumerate() {
                *slot = state.finish(aggs[a].agg, g, group_rows[g]);
            }
        }
    });
    Ok((out_schema, out, bytes))
}

/// One aggregate's running state in [`group_by_at`], a slot per group.
enum GroupState {
    /// `Count`: the group's row count says it all.
    Count,
    /// `Sum`, `Avg`: the sum of the non-null values, and their count.
    Sums(Vec<f64>, Vec<i64>),
    /// `CountNonNull`: the non-null values seen.
    NonNull(Vec<i64>),
    /// `Min`, `Max`: the extremum so far.
    Extrema(Vec<Option<Value>>),
}

impl GroupState {
    /// Aggregate `agg`'s value for group `g` of `rows` rows; an
    /// extremum is moved out.
    fn finish(&mut self, agg: Aggregate, g: usize, rows: i64) -> Value {
        match self {
            GroupState::Count => Value::Int(rows),
            // No value at all: SQL's NULL, as over no rows.
            GroupState::Sums(_, counts) if counts[g] == 0 => Value::Null,
            GroupState::Sums(sums, _) if agg == Aggregate::Sum => Value::Float(sums[g]),
            GroupState::Sums(sums, counts) => Value::Float(sums[g] / counts[g] as f64),
            GroupState::NonNull(counts) => Value::Int(counts[g]),
            GroupState::Extrema(extrema) => extrema[g].take().unwrap_or(Value::Null),
        }
    }
}

/// The rows `input` reads as runs in one part each, in input order:
/// each run's positions, the mask that turns one into a row of its
/// part's snapshot, and that snapshot's `column`. `None` when the rows
/// read are a slice's.
fn image_runs<'a>(
    input: Selected<'a>,
    column: usize,
) -> Option<Vec<(&'a [u32], u32, &'a TypedColumn)>> {
    let positions = input.positions?;
    let column = input.source_column(column);
    match input.parts {
        Parts::One(source) => Some(vec![(positions, u32::MAX, source.typed(column)?)]),
        Parts::Many(parts) => Some(
            part_runs(positions)
                .map(|(part, run)| (run, LOCAL_MASK, &parts[part].columns()[column]))
                .collect(),
        ),
    }
}

/// The numbers of an `Int`, `Timestamp` or `Float` image.
enum Numbers<'a> {
    /// `Int` or `Timestamp`.
    Ints(&'a [i64]),
    Floats(&'a [f64]),
}

impl<'a> Numbers<'a> {
    /// `values`' numbers, when it holds numbers.
    fn of(values: &'a Column) -> Option<Self> {
        match values {
            Column::Int(v) | Column::Timestamp(v) => Some(Numbers::Ints(v)),
            Column::Float(v) => Some(Numbers::Floats(v)),
            Column::Bool(_) | Column::Str(_) | Column::Bytes(_) => None,
        }
    }
}

/// `Sum` and `Avg`'s state over column `column` of the rows `input`
/// reads, row `i` in group `ids[i]`: each group's sum of its non-null
/// values, added in row order, and how many there were. An `Int`,
/// `Timestamp` or `Float` image is folded a run of one part at a time;
/// anything else is read through [`Selected::try_cells`].
///
/// # Errors
///
/// Returns [`Error::SchemaMismatch`] at the first non-null value that is
/// not a number.
fn sums(
    input: Selected<'_>,
    column: usize,
    ids: &[usize],
    groups: usize,
) -> Result<(Vec<f64>, Vec<i64>)> {
    let (mut sums, mut counts) = (vec![0.0; groups], vec![0i64; groups]);
    let runs = image_runs(input, column).and_then(|runs| {
        (runs.into_iter())
            .map(|(run, mask, (values, valid))| Some((run, mask, Numbers::of(values)?, valid)))
            .collect::<Option<Vec<_>>>()
    });
    let Some(runs) = runs else {
        input.try_cells(column, |i, v| {
            if !v.is_null() {
                sums[ids[i]] += v.as_f64().ok_or_else(|| not_a_number(v))?;
                counts[ids[i]] += 1;
            }
            Ok(())
        })?;
        return Ok((sums, counts));
    };
    fn add(
        rows: impl Iterator<Item = (usize, usize)>,
        valid: &[bool],
        (sums, counts): (&mut [f64], &mut [i64]),
        number: impl Fn(usize) -> f64,
    ) {
        for (p, g) in rows {
            if valid[p] {
                sums[g] += number(p);
                counts[g] += 1;
            }
        }
    }
    let mut rest = ids;
    for (run, mask, numbers, valid) in runs {
        let here;
        (here, rest) = rest.split_at(run.len());
        let rows = (run.iter().zip(here)).map(|(&p, &g)| ((p & mask) as usize, g));
        let state = (sums.as_mut_slice(), counts.as_mut_slice());
        match numbers {
            Numbers::Ints(v) => add(rows, valid, state, |p| v[p] as f64),
            Numbers::Floats(v) => add(rows, valid, state, |p| v[p]),
        }
    }
    Ok((sums, counts))
}

/// The error a sum raises at `v`, a non-null value that is not a
/// number; out of line, so that the loops summing stay small.
#[cold]
fn not_a_number(v: ValueRef<'_>) -> Error {
    Error::SchemaMismatch(format!("cannot aggregate {:?} numerically", v.to_value()))
}

/// `CountNonNull`'s state over column `column` of the rows `input`
/// reads, row `i` in group `ids[i]`: read off the validity flags of the
/// image where every part has one.
fn non_null(input: Selected<'_>, column: usize, ids: &[usize], groups: usize) -> Vec<i64> {
    let mut counts = vec![0i64; groups];
    let Some(runs) = image_runs(input, column) else {
        let Ok(()) = input.try_cells(column, |i, v| {
            counts[ids[i]] += i64::from(!v.is_null());
            Ok::<_, Infallible>(())
        });
        return counts;
    };
    let mut rest = ids;
    for (run, mask, (_, valid)) in runs {
        let here;
        (here, rest) = rest.split_at(run.len());
        for (&p, &g) in run.iter().zip(here) {
            counts[g] += i64::from(valid[(p & mask) as usize]);
        }
    }
    counts
}

/// `Min` or `Max`'s state over column `column` of the rows `input`
/// reads, row `i` in group `ids[i]`. Only a strictly better value
/// replaces the extremum: of equal values the first stays.
fn extrema(
    input: Selected<'_>,
    column: usize,
    ids: &[usize],
    groups: usize,
    agg: Aggregate,
) -> Vec<Option<Value>> {
    let better = match agg {
        Aggregate::Min => Ordering::Less,
        _ => Ordering::Greater,
    };
    let mut extrema: Vec<Option<Value>> = vec![None; groups];
    let Ok(()) = input.try_cells(column, |i, v| {
        let extremum = &mut extrema[ids[i]];
        if !v.is_null() && extremum.as_ref().is_none_or(|m| v.cmp(&m.view()) == better) {
            *extremum = Some(v.to_value());
        }
        Ok::<_, Infallible>(())
    });
    extrema
}

/// The one row an aggregate without keys returns over no rows, as SQL
/// has it: every count `0`, every other aggregate NULL.
fn empty_aggregate(aggs: &[AggregateSpec]) -> Row {
    aggs.iter()
        .map(|a| match a.agg {
            Aggregate::Count | Aggregate::CountNonNull => Value::Int(0),
            _ => Value::Null,
        })
        .collect()
}

/// The first `n` rows (all of them when there are fewer) — or the
/// first `n` positions of a selection.
pub fn limit<T: Clone>(rows: &[T], n: usize) -> Vec<T> {
    rows[..n.min(rows.len())].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataType};

    fn lr() -> (Schema, Vec<Row>, Schema, Vec<Row>) {
        let ls = Schema::new(vec![("id", DataType::Int), ("x", DataType::Str)]);
        let rs = Schema::new(vec![("id", DataType::Int), ("y", DataType::Float)]);
        let left = vec![row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]];
        let right = vec![
            row![2i64, 0.2],
            row![3i64, 0.3],
            row![3i64, 0.33],
            row![4i64, 0.4],
        ];
        (ls, left, rs, right)
    }

    #[test]
    fn hash_and_merge_joins_agree() {
        let (ls, l, rs, r) = lr();
        let (_, mut h) = hash_join(&ls, &l, &rs, &r, "id", "id", JoinKind::Inner).unwrap();
        let (_, mut m) = sort_merge_join(&ls, l, &rs, r, "id", "id").unwrap();
        h.sort();
        m.sort();
        assert_eq!(h, m);
        assert_eq!(h.len(), 3); // 2->1 match, 3->2 matches

        // A narrowed emit is the full one projected, in both joins, with
        // the byte size of the rows it built.
        let (ls, l, rs, r) = lr();
        let demand = ["y".to_owned(), "id".to_owned()];
        let (_, full) = hash_join(&ls, &l, &rs, &r, "id", "id", JoinKind::Inner).unwrap();
        let narrowed: Vec<Row> = full.iter().map(|row| row.project(&[3, 0])).collect();
        let walked: u64 = narrowed.iter().map(|row| row.byte_size() as u64).sum();
        let kind = JoinKind::Inner;
        let (l, r) = (Selected::all(&l).unwrap(), Selected::all(&r).unwrap());
        let (hs, h, h_bytes) =
            hash_join_with(&ls, l, &rs, r, "id", "id", kind, Some(&demand), |_| {}).unwrap();
        let (ms, m, m_bytes) =
            sort_merge_join_with(&ls, l, &rs, r, "id", "id", Some(&demand)).unwrap();
        assert_eq!(
            (hs.names(), &h, h_bytes),
            (vec!["y", "id"], &narrowed, walked)
        );
        assert_eq!(
            (ms.names(), &m, m_bytes),
            (vec!["y", "id"], &narrowed, walked)
        );

        // An `Int` key column against a `Float` one: `Value` compares
        // the two numerically, and so must both joins — with the ints
        // on either side, and with either side the smaller (build) one.
        let ints = Schema::new(vec![("k", DataType::Int)]);
        let floats = Schema::new(vec![("k", DataType::Float)]);
        let i = vec![row![1i64], row![2i64]];
        let f = vec![row![1.0], row![2.5], row![-0.0]];
        for (ls, l, rs, r) in [(&ints, &i, &floats, &f), (&floats, &f, &ints, &i)] {
            let (_, h) = hash_join(ls, l, rs, r, "k", "k", JoinKind::Inner).unwrap();
            let (_, m) = sort_merge_join(ls, l.clone(), rs, r.clone(), "k", "k").unwrap();
            assert_eq!(h, m);
            assert_eq!(h.len(), 1, "1 joins 1.0 and nothing else: {h:?}");
        }
    }

    /// A demanded name is a name of the *full* join schema: the right
    /// `id` is `id_r` whether or not the left `id` was shipped, a name
    /// both sides have is the left's, and the padded row of a left outer
    /// join is narrowed like any other.
    #[test]
    fn narrowed_emit_names_columns_as_the_full_join_does() {
        let (ls, l, rs, r) = lr();
        let names = |list: &[&str]| list.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let join = |ls: &Schema, l: &[Row], demand: &[&str]| {
            let demand = names(demand);
            let kind = JoinKind::LeftOuter;
            let (l, r) = (Selected::all(l)?, Selected::all(&r)?);
            hash_join_with(ls, l, &rs, r, "id", "id", kind, Some(&demand), |_| {})
        };
        let (schema, rows, _) = join(&ls, &l, &["id_r", "y", "id"]).unwrap();
        assert_eq!(schema.names(), vec!["id_r", "y", "id"]);
        assert_eq!(schema.fields()[1].data_type, DataType::Float);
        assert_eq!(rows[0], row![Value::Null, Value::Null, 1i64], "padded");
        assert_eq!(rows[1], row![2i64, 0.2, 2i64]);
        // The left arrives without its `x`; `id` is still the left's and
        // `id_r` the right's.
        let (narrow_ls, narrow_l) = project(&ls, &l, &["id"]).unwrap();
        let (schema, narrow_rows, _) = join(&narrow_ls, &narrow_l, &["id_r", "y", "id"]).unwrap();
        assert_eq!(schema.names(), vec!["id_r", "y", "id"]);
        assert_eq!(narrow_rows, rows);
        // A left `(k, id)` shipped as `(k)`: `id_r` is still the right's
        // `id`, under the name the full join gives it.
        let keyed = Schema::new(vec![("k", DataType::Int)]);
        let demand = names(&["id_r"]);
        let kind = JoinKind::Inner;
        let (schema, rows, bytes) = hash_join_with(
            &keyed,
            Selected::all(&narrow_l).unwrap(),
            &rs,
            Selected::all(&r).unwrap(),
            "k",
            "id",
            kind,
            Some(&demand),
            |_| {},
        )
        .unwrap();
        assert_eq!(schema.names(), vec!["id_r"]);
        assert_eq!(rows, vec![row![2i64], row![3i64], row![3i64]]);
        assert_eq!(bytes, 24);
        // A chained join numbers the suffix: `id_r2` is the right's `id`.
        let (_, suffixed, _) = join(&narrow_ls, &narrow_l, &["id_r"]).unwrap();
        let (schema, numbered, _) = join(&narrow_ls, &narrow_l, &["id_r2"]).unwrap();
        assert_eq!((schema.names(), numbered), (vec!["id_r2"], suffixed));
        // A name neither input has is refused.
        assert!(matches!(
            join(&ls, &l, &["x_r"]),
            Err(Error::ColumnNotFound(name)) if name == "x_r"
        ));
    }

    /// Rows whose first three columns no kernel can read as words: a
    /// string, an int column with a NULL, ints beside floats.
    fn untyped() -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![
            ("s", DataType::Str),
            ("n", DataType::Int),
            ("m", DataType::Float),
            ("v", DataType::Int),
        ]);
        let rows = vec![
            row!["b", 2i64, 1i64, 10i64],
            row!["a", Value::Null, 0.5, 20i64],
            row!["b", 1i64, 1.5, 30i64],
            row!["a", 2i64, 0i64, 40i64],
        ];
        let all = Selected::all(&rows).unwrap();
        for column in 0..3 {
            assert!(key_words(all, column).is_none(), "column {column}");
        }
        assert!(key_words(all, 3).is_some());
        assert!(key_words(Selected::all(&[]).unwrap(), 3).is_none());
        (schema, rows)
    }

    #[test]
    fn untyped_sort_keys_take_the_generic_body() {
        let (schema, rows) = untyped();
        let sorted = |keys: &[SortKey]| -> Vec<i64> {
            let out = sort_rows(&schema, rows.clone(), keys).unwrap();
            out.iter().map(|r| r[3].as_i64().unwrap()).collect()
        };
        assert_eq!(sorted(&[SortKey::asc("s")]), [20, 40, 10, 30]);
        assert_eq!(sorted(&[SortKey::asc("n")]), [20, 30, 10, 40], "NULL first");
        assert_eq!(sorted(&[SortKey::desc("m")]), [30, 10, 20, 40]);
        // One untyped key sends the whole call there, typed keys and all.
        assert_eq!(
            sorted(&[SortKey::desc("v"), SortKey::asc("s")]),
            [40, 30, 20, 10]
        );
        assert_eq!(
            sorted(&[SortKey::asc("s"), SortKey::desc("v")]),
            [40, 20, 30, 10]
        );
        // As do more keys than a record has words for.
        let v = SortKey::asc("v");
        assert_eq!(
            sorted(&[v.clone(), v.clone(), v.clone(), SortKey::desc("v")]),
            [10, 20, 30, 40]
        );
    }

    #[test]
    fn untyped_group_keys_take_the_generic_body() {
        let (schema, rows) = untyped();
        let aggs = [
            AggregateSpec::count("n_rows"),
            AggregateSpec::new(Aggregate::Sum, "v", "sum"),
        ];
        let grouped = |keys: &[&str]| group_by(&schema, &rows, keys, &aggs).unwrap().1;
        assert_eq!(
            grouped(&["s"]),
            vec![row!["b", 2i64, 40.0], row!["a", 2i64, 60.0]]
        );
        assert_eq!(
            grouped(&["n"]),
            vec![
                row![2i64, 2i64, 50.0],
                row![Value::Null, 1i64, 20.0],
                row![1i64, 1i64, 30.0]
            ],
            "NULLs are one group"
        );
        assert_eq!(grouped(&["m"]).len(), 4);
        // Two typed key columns are still more than one word.
        assert_eq!(grouped(&["v", "v"]).len(), 4);
        // A typed single key agrees with the same key through the
        // generic body (`["v", "s"]` has a distinct `v` per row too).
        let typed: Vec<Value> = grouped(&["v"]).iter().map(|r| r[0].clone()).collect();
        let generic: Vec<Value> = grouped(&["v", "s"]).iter().map(|r| r[0].clone()).collect();
        assert_eq!(typed, generic);
    }

    #[test]
    fn untyped_join_keys_take_the_generic_body() {
        let (schema, rows) = untyped();
        let tags = Schema::new(vec![
            ("s", DataType::Str),
            ("n", DataType::Int),
            ("m", DataType::Float),
        ]);
        let right = vec![row!["a", 2i64, 1.0], row!["c", Value::Null, 0i64]];
        let joined = |on: &str, kind| -> Vec<(i64, Value)> {
            let (_, out) = hash_join(&schema, &rows, &tags, &right, on, on, kind).unwrap();
            let at = 4 + tags.index_of(on).unwrap();
            out.iter()
                .map(|r| (r[3].as_i64().unwrap(), r[at].clone()))
                .collect()
        };
        let a = Value::from("a");
        assert_eq!(
            joined("s", JoinKind::Inner),
            [(20, a.clone()), (40, a.clone())]
        );
        assert_eq!(
            joined("s", JoinKind::LeftOuter),
            [
                (10, Value::Null),
                (20, a.clone()),
                (30, Value::Null),
                (40, a)
            ]
        );
        // NULL joins nothing, not even NULL.
        assert_eq!(
            joined("n", JoinKind::Inner),
            [(10, Value::Int(2)), (40, Value::Int(2))]
        );
        // Mixed kinds compare numerically: Int(1) = 1.0, Int(0) = Int(0).
        assert_eq!(
            joined("m", JoinKind::Inner),
            [(10, Value::Float(1.0)), (40, Value::Int(0))]
        );
        // Typed columns of kinds that never compare equal.
        let stamps = Schema::new(vec![("v", DataType::Timestamp)]);
        let stamp = vec![row![Value::Timestamp(10)]];
        let (_, none) =
            hash_join(&schema, &rows, &stamps, &stamp, "v", "v", JoinKind::Inner).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn an_int_groups_with_the_float_it_equals() {
        let s = Schema::new(vec![("k", DataType::Float)]);
        let rows = vec![row![1i64], row![0.0], row![1.0], row![-0.0], row![0i64]];
        let (_, out) = group_by(&s, &rows, &["k"], &[AggregateSpec::count("n")]).unwrap();
        assert_eq!(
            out,
            vec![row![1i64, 2i64], row![0.0, 2i64], row![-0.0, 1i64]],
            "groups are `Value`'s equality classes, named by their first row"
        );
    }

    #[test]
    fn join_builds_on_the_smaller_side_and_keeps_probe_order() {
        let ls = Schema::new(vec![("k", DataType::Int), ("l", DataType::Int)]);
        let rs = Schema::new(vec![("k", DataType::Int), ("r", DataType::Int)]);
        let small = vec![row![2i64, 0i64], row![1i64, 1i64], row![2i64, 2i64]];
        let large = vec![
            row![1i64, 0i64],
            row![2i64, 1i64],
            row![3i64, 2i64],
            row![2i64, 3i64],
            row![1i64, 4i64],
        ];
        let pairs = |l: &[Row], r: &[Row], kind| -> (Vec<(i64, Value)>, Vec<usize>) {
            let (_, out, counts) = hash_join_counted(&ls, l, &rs, r, "k", "k", kind).unwrap();
            let pairs = out
                .iter()
                .map(|row| (row[1].as_i64().unwrap(), row[3].clone()))
                .collect();
            (pairs, counts)
        };
        let int = Value::Int;
        // Fewer left rows: the table is built on them, and the output is
        // still left-major with each left row's matches in right order.
        assert_eq!(
            pairs(&small, &large, JoinKind::Inner),
            (
                vec![
                    (0, int(1)),
                    (0, int(3)),
                    (1, int(0)),
                    (1, int(4)),
                    (2, int(1)),
                    (2, int(3))
                ],
                vec![2, 2, 2]
            )
        );
        // Fewer right rows: built on the right, as ever.
        assert_eq!(
            pairs(&large, &small, JoinKind::LeftOuter),
            (
                vec![
                    (0, int(1)),
                    (1, int(0)),
                    (1, int(2)),
                    (2, Value::Null),
                    (3, int(0)),
                    (3, int(2)),
                    (4, int(1))
                ],
                vec![1, 2, 1, 2, 1]
            )
        );
    }

    #[test]
    fn left_outer_pads_nulls() {
        let (ls, l, rs, r) = lr();
        let (schema, rows) = hash_join(&ls, &l, &rs, &r, "id", "id", JoinKind::LeftOuter).unwrap();
        assert_eq!(rows.len(), 4); // id=1 survives with NULLs
        let unmatched = rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert!(unmatched[2].is_null() && unmatched[3].is_null());
        assert_eq!(schema.arity(), 4);
        assert_eq!(schema.names(), vec!["id", "x", "id_r", "y"]);
    }

    #[test]
    fn join_skips_null_keys() {
        let ls = Schema::new(vec![("id", DataType::Int)]);
        let l = vec![Row::from(vec![Value::Null]), row![1i64]];
        let r = vec![Row::from(vec![Value::Null]), row![1i64]];
        let (_, rows) = hash_join(&ls, &l, &ls, &r, "id", "id", JoinKind::Inner).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn multi_key_sort_with_direction() {
        let s = Schema::new(vec![("a", DataType::Int), ("b", DataType::Int)]);
        let rows = vec![row![1i64, 2i64], row![1i64, 1i64], row![0i64, 9i64]];
        let sorted = sort_rows(&s, rows, &[SortKey::asc("a"), SortKey::desc("b")]).unwrap();
        assert_eq!(
            sorted,
            vec![row![0i64, 9i64], row![1i64, 2i64], row![1i64, 1i64]]
        );
    }

    #[test]
    fn group_by_all_aggregates() {
        let s = Schema::new(vec![("g", DataType::Str), ("v", DataType::Int)]);
        let rows = vec![row!["a", 1i64], row!["a", 5i64], row!["b", 2i64]];
        let (schema, out) = group_by(
            &s,
            &rows,
            &["g"],
            &[
                AggregateSpec::count("n"),
                AggregateSpec::new(Aggregate::Sum, "v", "sum"),
                AggregateSpec::new(Aggregate::Avg, "v", "avg"),
                AggregateSpec::new(Aggregate::Min, "v", "min"),
                AggregateSpec::new(Aggregate::Max, "v", "max"),
            ],
        )
        .unwrap();
        assert_eq!(schema.arity(), 6);
        let a = out.iter().find(|r| r[0] == Value::from("a")).unwrap();
        assert_eq!(a[1], Value::Int(2));
        assert_eq!(a[2], Value::Float(6.0));
        assert_eq!(a[3], Value::Float(3.0));
        assert_eq!(a[4], Value::Int(1));
        assert_eq!(a[5], Value::Int(5));
    }

    /// `MIN` and `MAX` return one of the column's values, so their
    /// output column has the column's type, single-site and merged: the
    /// rows pass the schema's check and batch for a migration.
    #[test]
    fn an_extremum_has_its_column_type() {
        let s = Schema::new(vec![
            ("g", DataType::Str),
            ("v", DataType::Int),
            ("t", DataType::Timestamp),
        ]);
        let rows = vec![
            row!["a", 1i64, Value::Timestamp(7)],
            row!["a", 5i64, Value::Null],
            row!["b", Value::Null, Value::Timestamp(3)],
        ];
        let aggs = [
            AggregateSpec::new(Aggregate::Min, "v", "min"),
            AggregateSpec::new(Aggregate::Max, "t", "max"),
            AggregateSpec::new(Aggregate::Sum, "v", "sum"),
        ];
        let (schema, out) = group_by(&s, &rows, &["g"], &aggs).unwrap();
        let types: Vec<DataType> = schema.fields().iter().map(|f| f.data_type).collect();
        let want = [
            DataType::Str,
            DataType::Int,
            DataType::Timestamp,
            DataType::Float,
        ];
        assert_eq!(types, want);
        for row in &out {
            schema.check_row(row).unwrap();
        }
        Batch::from_columns(&schema, &out, &[0, 1, 2, 3]).unwrap();

        let (merged_schema, merged) = merge_group_partials(&schema, &out, 1, &aggs).unwrap();
        assert_eq!(merged_schema, schema);
        assert_eq!(merged, out);
    }

    /// A group whose column holds only NULLs sums to NULL, as SQL has it
    /// and as the same group's partial sums merge.
    #[test]
    fn a_sum_of_only_nulls_is_null() {
        let s = Schema::new(vec![("g", DataType::Str), ("v", DataType::Float)]);
        let rows = vec![
            row!["a", Value::Null],
            row!["b", 1.5],
            row!["a", Value::Null],
        ];
        let aggs = [
            AggregateSpec::new(Aggregate::Sum, "v", "sum"),
            AggregateSpec::new(Aggregate::Avg, "v", "avg"),
        ];
        let (_, out) = group_by(&s, &rows, &["g"], &aggs).unwrap();
        assert_eq!(
            out,
            [row!["a", Value::Null, Value::Null], row!["b", 1.5, 1.5]]
        );
        let sum = &aggs[..1];
        let (ps, partials) = group_by(&s, &rows, &["g"], sum).unwrap();
        let (_, merged) = merge_group_partials(&ps, &partials, 1, sum).unwrap();
        assert_eq!(merged, [row!["a", Value::Null], row!["b", 1.5]]);
    }

    #[test]
    fn counted_join_is_the_join_plus_per_probe_chunk_sizes() {
        let ls = Schema::new(vec![("k", DataType::Int)]);
        let rs = Schema::new(vec![("k", DataType::Int), ("v", DataType::Str)]);
        let left = vec![row![1i64], row![Value::Null], row![2i64], row![3i64]];
        let right = vec![
            row![2i64, "a"],
            row![Value::Null, "n"],
            row![2i64, "b"],
            row![1i64, "c"],
        ];
        for (kind, expect) in [
            (JoinKind::Inner, vec![1, 0, 2, 0]),
            // An unmatched probe row still produces its padded row.
            (JoinKind::LeftOuter, vec![1, 1, 2, 1]),
        ] {
            let (schema, rows, counts) =
                hash_join_counted(&ls, &left, &rs, &right, "k", "k", kind).unwrap();
            assert_eq!(counts, expect);
            // Same body: the plain form returns the same schema and rows.
            let (plain_schema, plain) = hash_join(&ls, &left, &rs, &right, "k", "k", kind).unwrap();
            assert_eq!((schema, &rows), (plain_schema, &plain));
            // The counts cut the output into per-probe-row chunks.
            let mut chunks = rows.as_slice();
            for (l, &n) in left.iter().zip(&counts) {
                let (chunk, rest) = chunks.split_at(n);
                assert!(chunk.iter().all(|r| r[0] == l[0]));
                chunks = rest;
            }
            assert!(chunks.is_empty());
        }
        assert!(matches!(
            hash_join_counted(&ls, &left, &rs, &right, "nope", "k", JoinKind::Inner),
            Err(Error::ColumnNotFound(_))
        ));
    }

    #[test]
    fn merged_partials_equal_single_site_group_by() {
        // Integer columns: float sums are exact, so the merge must be
        // byte-identical to aggregating the gathered rows directly.
        let s = Schema::new(vec![("g", DataType::Str), ("v", DataType::Int)]);
        let rows = vec![
            row!["b", 4i64],
            row!["a", 1i64],
            row!["a", 5i64],
            row!["b", 2i64],
            row!["c", Value::Null],
        ];
        let aggs = [
            AggregateSpec::count("n"),
            AggregateSpec::new(Aggregate::Sum, "v", "sum"),
            AggregateSpec::new(Aggregate::Avg, "v", "avg"),
            AggregateSpec::new(Aggregate::Min, "v", "min"),
            AggregateSpec::new(Aggregate::Max, "v", "max"),
        ];
        // The partial layout `pspp_ir::partial_agg_specs` produces:
        // count, sum, (sum, non-null count), min, max.
        let partial = [
            AggregateSpec::count("__p0_count"),
            AggregateSpec::new(Aggregate::Sum, "v", "__p1_sum"),
            AggregateSpec::new(Aggregate::Sum, "v", "__p2_sum"),
            AggregateSpec::new(Aggregate::CountNonNull, "v", "__p2_n"),
            AggregateSpec::new(Aggregate::Min, "v", "__p3_min"),
            AggregateSpec::new(Aggregate::Max, "v", "__p4_max"),
        ];
        let (expect_schema, expect) = group_by(&s, &rows, &["g"], &aggs).unwrap();
        // Split rows across two "shards" and aggregate each partially.
        let (shard0, shard1) = rows.split_at(2);
        let (ps, mut partial_rows) = group_by(&s, shard0, &["g"], &partial).unwrap();
        let (_, more) = group_by(&s, shard1, &["g"], &partial).unwrap();
        partial_rows.extend(more);
        let (schema, merged) = merge_group_partials(&ps, &partial_rows, 1, &aggs).unwrap();
        assert_eq!(schema, expect_schema);
        assert_eq!(merged, expect, "merge must reproduce the gathered answer");
    }

    #[test]
    fn merge_partials_arity_mismatch_is_typed() {
        let s = Schema::new(vec![("g", DataType::Str), ("x", DataType::Int)]);
        let err = merge_group_partials(&s, &[], 1, &[AggregateSpec::count("n")]);
        assert!(err.is_ok(), "count layout is one column");
        let err = merge_group_partials(&s, &[], 1, &[AggregateSpec::new(Aggregate::Avg, "x", "a")])
            .unwrap_err();
        assert!(matches!(err, Error::SchemaMismatch(_)), "got {err:?}");
    }

    #[test]
    fn count_non_null_counts_only_values() {
        let s = Schema::new(vec![("g", DataType::Str), ("v", DataType::Int)]);
        let rows = vec![row!["a", 1i64], row!["a", Value::Null], row!["a", 3i64]];
        let (schema, out) = group_by(
            &s,
            &rows,
            &["g"],
            &[
                AggregateSpec::count("rows"),
                AggregateSpec::new(Aggregate::CountNonNull, "v", "vals"),
            ],
        )
        .unwrap();
        assert_eq!(schema.names(), vec!["g", "rows", "vals"]);
        assert_eq!(out[0][1], Value::Int(3));
        assert_eq!(out[0][2], Value::Int(2));
    }

    #[test]
    fn group_by_preserves_first_seen_order() {
        let s = Schema::new(vec![("g", DataType::Str)]);
        let rows = vec![row!["z"], row!["a"], row!["z"], row!["m"]];
        let (_, out) = group_by(&s, &rows, &["g"], &[AggregateSpec::count("n")]).unwrap();
        let order: Vec<&str> = out.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(order, vec!["z", "a", "m"]);
    }

    #[test]
    fn filter_project_limit() {
        let s = Schema::new(vec![("a", DataType::Int), ("b", DataType::Int)]);
        let rows: Vec<Row> = (0..10).map(|i| row![i as i64, (i * i) as i64]).collect();
        let f = filter_rows(&s, rows, &Predicate::ge("a", 5i64)).unwrap();
        assert_eq!(f.len(), 5);
        let (ps, p) = project(&s, &f, &["b"]).unwrap();
        assert_eq!(ps.arity(), 1);
        assert_eq!(p[0], row![25i64]);
        assert_eq!(limit(&p, 2).len(), 2);
    }

    #[test]
    fn aggregate_non_numeric_errors() {
        let s = Schema::new(vec![("g", DataType::Str)]);
        let rows = vec![row!["a"]];
        assert!(group_by(
            &s,
            &rows,
            &[],
            &[AggregateSpec::new(Aggregate::Sum, "g", "s")]
        )
        .is_err());
    }
}
