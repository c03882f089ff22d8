//! Scan predicates: a small expression tree evaluated against rows.

use std::cmp::Ordering;

use crate::{Batch, Column, Error, Result, Row, Schema, TypedColumn, Value, ValueRef};

/// A boolean predicate over a row.
///
/// # Examples
///
/// ```
/// use pspp_common::Predicate;
/// use pspp_common::{Schema, DataType, row};
///
/// let schema = Schema::new(vec![("age", DataType::Int)]);
/// let p = Predicate::ge("age", 65i64).and(Predicate::lt("age", 90i64));
/// assert!(p.eval(&schema, &row![70i64]).unwrap());
/// assert!(!p.eval(&schema, &row![30i64]).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Predicate {
    /// Always true (full scan).
    #[default]
    True,
    /// `column = value`.
    Eq(String, Value),
    /// `column != value`.
    Ne(String, Value),
    /// `column < value`.
    Lt(String, Value),
    /// `column <= value`.
    Le(String, Value),
    /// `column > value`.
    Gt(String, Value),
    /// `column >= value`.
    Ge(String, Value),
    /// `lo <= column <= hi`.
    Between(String, Value, Value),
    /// `column IN (values)`.
    In(String, Vec<Value>),
    /// `column IS NULL`.
    IsNull(String),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = value`.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Eq(column.into(), value.into())
    }

    /// `column < value`.
    pub fn lt(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Lt(column.into(), value.into())
    }

    /// `column <= value`.
    pub fn le(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Le(column.into(), value.into())
    }

    /// `column > value`.
    pub fn gt(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Gt(column.into(), value.into())
    }

    /// `column >= value`.
    pub fn ge(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Ge(column.into(), value.into())
    }

    /// `lo <= column <= hi`.
    pub fn between(column: impl Into<String>, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Predicate::Between(column.into(), lo.into(), hi.into())
    }

    /// Conjunction with `other`.
    #[allow(clippy::should_implement_trait)]
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction with `other`.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates against a row, resolving column names as it goes. A
    /// scan or filter over many rows should [`Predicate::bind`] once
    /// instead.
    ///
    /// NULL comparisons follow SQL three-valued logic collapsed to
    /// `false` (a NULL never satisfies a comparison except `IsNull`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::ColumnNotFound`] for unknown columns.
    pub fn eval(&self, schema: &Schema, row: &Row) -> Result<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => Self::cmp_col(schema, row, c)?.is_some_and(|x| x == v),
            Predicate::Ne(c, v) => Self::cmp_col(schema, row, c)?.is_some_and(|x| x != v),
            Predicate::Lt(c, v) => Self::cmp_col(schema, row, c)?.is_some_and(|x| x < v),
            Predicate::Le(c, v) => Self::cmp_col(schema, row, c)?.is_some_and(|x| x <= v),
            Predicate::Gt(c, v) => Self::cmp_col(schema, row, c)?.is_some_and(|x| x > v),
            Predicate::Ge(c, v) => Self::cmp_col(schema, row, c)?.is_some_and(|x| x >= v),
            Predicate::Between(c, lo, hi) => {
                Self::cmp_col(schema, row, c)?.is_some_and(|x| x >= lo && x <= hi)
            }
            Predicate::In(c, vs) => Self::cmp_col(schema, row, c)?.is_some_and(|x| vs.contains(x)),
            Predicate::IsNull(c) => row[schema.require(c)?].is_null(),
            Predicate::And(a, b) => a.eval(schema, row)? && b.eval(schema, row)?,
            Predicate::Or(a, b) => a.eval(schema, row)? || b.eval(schema, row)?,
            Predicate::Not(p) => !p.eval(schema, row)?,
        })
    }

    fn cmp_col<'r>(schema: &Schema, row: &'r Row, column: &str) -> Result<Option<&'r Value>> {
        let v = &row[schema.require(column)?];
        Ok(if v.is_null() { None } else { Some(v) })
    }

    /// Resolves every column name against `schema` once, so evaluating
    /// many rows costs no name lookups. Same results as
    /// [`Predicate::eval`] row for row, errors included: an unknown
    /// column is an error only when a row reaches the leaf that names
    /// it (a short-circuited `And`/`Or` branch never does).
    pub fn bind<'a>(&'a self, schema: &Schema) -> BoundPredicate<'a> {
        let col = |name: &'a str| match schema.index_of(name) {
            Some(idx) => BoundColumn::At(idx),
            None => BoundColumn::Unknown(name),
        };
        let range = |c: &'a str, lo, hi| Bound::Range(col(c), Interval { lo, hi });
        let both =
            |a: &'a Predicate, b: &'a Predicate| Box::new([a.bind(schema).0, b.bind(schema).0]);
        BoundPredicate(match self {
            Predicate::True => Bound::True,
            Predicate::Eq(c, v) => range(c, Some((v, true)), Some((v, true))),
            Predicate::Ne(c, v) => Bound::Ne(col(c), v),
            Predicate::Lt(c, v) => range(c, None, Some((v, false))),
            Predicate::Le(c, v) => range(c, None, Some((v, true))),
            Predicate::Gt(c, v) => range(c, Some((v, false)), None),
            Predicate::Ge(c, v) => range(c, Some((v, true)), None),
            Predicate::Between(c, lo, hi) => range(c, Some((lo, true)), Some((hi, true))),
            Predicate::In(c, vs) => Bound::In(col(c), vs),
            Predicate::IsNull(c) => Bound::IsNull(col(c)),
            Predicate::And(a, b) => Bound::And(both(a, b)),
            Predicate::Or(a, b) => Bound::Or(both(a, b)),
            Predicate::Not(p) => Bound::Not(Box::new(p.bind(schema).0)),
        })
    }

    /// If the predicate (or its leading conjunct) is a point/range lookup
    /// on one column, returns `(column, lo, hi)` bounds usable by an
    /// index scan (either bound may be `None` for open ranges).
    pub fn index_bounds(&self) -> Option<(&str, Option<&Value>, Option<&Value>)> {
        match self {
            Predicate::Eq(c, v) => Some((c, Some(v), Some(v))),
            Predicate::Between(c, lo, hi) => Some((c, Some(lo), Some(hi))),
            Predicate::Lt(c, v) | Predicate::Le(c, v) => Some((c, None, Some(v))),
            Predicate::Gt(c, v) | Predicate::Ge(c, v) => Some((c, Some(v), None)),
            Predicate::And(a, _) => a.index_bounds(),
            _ => None,
        }
    }

    /// Rough selectivity estimate in (0, 1]; used by the optimizer's
    /// cardinality model before execution. Never zero, however the
    /// tree is built (`NOT TRUE`, an empty `IN`, a deep conjunction):
    /// a zero would wipe out every byte estimate downstream of it.
    pub fn selectivity(&self) -> f64 {
        let raw = match self {
            Predicate::True => 1.0,
            Predicate::Eq(..) => 0.05,
            Predicate::Ne(..) => 0.95,
            Predicate::Lt(..) | Predicate::Le(..) | Predicate::Gt(..) | Predicate::Ge(..) => 0.33,
            Predicate::Between(..) => 0.2,
            Predicate::In(_, vs) => 0.05 * vs.len() as f64,
            Predicate::IsNull(_) => 0.02,
            Predicate::And(a, b) => a.selectivity() * b.selectivity(),
            Predicate::Or(a, b) => a.selectivity() + b.selectivity(),
            Predicate::Not(p) => 1.0 - p.selectivity(),
        };
        raw.clamp(MIN_SELECTIVITY, 1.0)
    }

    /// The column names the predicate reads, leaf by leaf in evaluation
    /// order (a name appears once per leaf that uses it).
    pub fn columns(&self) -> Vec<&str> {
        fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a str>) {
            match p {
                Predicate::True => {}
                Predicate::Eq(c, _)
                | Predicate::Ne(c, _)
                | Predicate::Lt(c, _)
                | Predicate::Le(c, _)
                | Predicate::Gt(c, _)
                | Predicate::Ge(c, _)
                | Predicate::Between(c, _, _)
                | Predicate::In(c, _)
                | Predicate::IsNull(c) => out.push(c),
                Predicate::And(a, b) | Predicate::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Predicate::Not(p) => walk(p, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// The same predicate reading column `rename(c)` wherever this one
    /// reads `c`.
    pub fn rename_columns(self, rename: &impl Fn(&str) -> String) -> Predicate {
        let both = |a: Box<Predicate>, b: Box<Predicate>| {
            (
                Box::new(a.rename_columns(rename)),
                Box::new(b.rename_columns(rename)),
            )
        };
        match self {
            Predicate::True => Predicate::True,
            Predicate::Eq(c, v) => Predicate::Eq(rename(&c), v),
            Predicate::Ne(c, v) => Predicate::Ne(rename(&c), v),
            Predicate::Lt(c, v) => Predicate::Lt(rename(&c), v),
            Predicate::Le(c, v) => Predicate::Le(rename(&c), v),
            Predicate::Gt(c, v) => Predicate::Gt(rename(&c), v),
            Predicate::Ge(c, v) => Predicate::Ge(rename(&c), v),
            Predicate::Between(c, lo, hi) => Predicate::Between(rename(&c), lo, hi),
            Predicate::In(c, vs) => Predicate::In(rename(&c), vs),
            Predicate::IsNull(c) => Predicate::IsNull(rename(&c)),
            Predicate::And(a, b) => {
                let (a, b) = both(a, b);
                Predicate::And(a, b)
            }
            Predicate::Or(a, b) => {
                let (a, b) = both(a, b);
                Predicate::Or(a, b)
            }
            Predicate::Not(p) => Predicate::Not(Box::new(p.rename_columns(rename))),
        }
    }

    /// The conjuncts of the predicate, in evaluation order: `a AND (b
    /// AND c)` and `(a AND b) AND c` both split into `[a, b, c]`; any
    /// other predicate is its own single conjunct.
    pub fn into_conjuncts(self) -> Vec<Predicate> {
        fn walk(p: Predicate, out: &mut Vec<Predicate>) {
            match p {
                Predicate::And(a, b) => {
                    walk(*a, out);
                    walk(*b, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// The conjunction of `conjuncts` in order ([`Predicate::True`] for
    /// none) — the inverse of [`Predicate::into_conjuncts`].
    pub fn all(conjuncts: impl IntoIterator<Item = Predicate>) -> Predicate {
        conjuncts
            .into_iter()
            .reduce(Predicate::and)
            .unwrap_or(Predicate::True)
    }
}

/// The floor of [`Predicate::selectivity`]: one row in a million.
const MIN_SELECTIVITY: f64 = 1e-6;

/// A [`Predicate`] with its columns resolved to positions in one schema
/// (see [`Predicate::bind`]); borrows the predicate's literals.
#[derive(Debug, Clone)]
pub struct BoundPredicate<'a>(Bound<'a>);

/// A column reference resolved by [`Predicate::bind`].
#[derive(Debug, Clone, Copy)]
enum BoundColumn<'a> {
    /// The column's position in the bound schema.
    At(usize),
    /// A name the schema does not have; evaluating it is the error.
    Unknown(&'a str),
}

impl BoundColumn<'_> {
    /// The column's value when it is not NULL, `cell` reading a column
    /// of the row.
    fn non_null<'v>(self, cell: &impl Fn(usize) -> ValueRef<'v>) -> Result<Option<ValueRef<'v>>> {
        match self {
            BoundColumn::At(idx) => Ok(Some(cell(idx)).filter(|v| !v.is_null())),
            BoundColumn::Unknown(name) => Err(Error::ColumnNotFound(name.to_owned())),
        }
    }
}

#[derive(Debug, Clone)]
enum Bound<'a> {
    True,
    /// `Eq`, `Lt`, `Le`, `Gt`, `Ge` and `Between`: the column lies in an
    /// interval.
    Range(BoundColumn<'a>, Interval<&'a Value>),
    Ne(BoundColumn<'a>, &'a Value),
    In(BoundColumn<'a>, &'a [Value]),
    IsNull(BoundColumn<'a>),
    And(Box<[Bound<'a>; 2]>),
    Or(Box<[Bound<'a>; 2]>),
    Not(Box<Bound<'a>>),
}

/// Where a range leaf, or a conjunction of them on one column, lets a
/// value lie: each bound a literal and whether it is inclusive; `None`
/// leaves that side open.
#[derive(Debug, Clone, Copy)]
struct Interval<L> {
    lo: Option<(L, bool)>,
    hi: Option<(L, bool)>,
}

impl<L: Copy> Interval<L> {
    /// The same bounds, each literal taken through `f`; `None` when `f`
    /// refuses one.
    fn map<M>(self, f: impl Fn(L) -> Option<M>) -> Option<Interval<M>> {
        let side = |bound: Option<(L, bool)>| match bound {
            Some((v, inclusive)) => f(v).map(|v| Some((v, inclusive))),
            None => Some(None),
        };
        Some(Interval {
            lo: side(self.lo)?,
            hi: side(self.hi)?,
        })
    }

    /// The values both intervals hold, `cmp` ordering two literals (a
    /// total order, or the meet is not exact): on each side the tighter
    /// bound, the exclusive one where the two literals are equal.
    fn meet(self, other: Self, cmp: impl Fn(&L, &L) -> Ordering) -> Self {
        let tighter = |a, b, inward| match (a, b) {
            (Some((x, x_inclusive)), Some((y, y_inclusive))) => Some(match cmp(&x, &y) {
                Ordering::Equal => (x, x_inclusive && y_inclusive),
                o if o == inward => (x, x_inclusive),
                _ => (y, y_inclusive),
            }),
            (a, b) => a.or(b),
        };
        Interval {
            lo: tighter(self.lo, other.lo, Ordering::Greater),
            hi: tighter(self.hi, other.hi, Ordering::Less),
        }
    }
}

impl<L> Interval<L> {
    /// Whether `x` lies inside, `cmp` ordering a value against a
    /// literal.
    #[inline]
    fn holds<T>(&self, x: &T, cmp: impl Fn(&T, &L) -> Ordering) -> bool {
        let inside = |bound: &Option<(L, bool)>, inward| {
            bound.as_ref().is_none_or(|(v, inclusive)| match cmp(x, v) {
                Ordering::Equal => *inclusive,
                o => o == inward,
            })
        };
        inside(&self.lo, Ordering::Greater) && inside(&self.hi, Ordering::Less)
    }
}

/// What [`BoundPredicate::select`] reads: rows of the bound schema, or
/// a batch of them, every column typed — a table's data, say.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSource<'a> {
    /// Rows, read a cell at a time.
    Rows(&'a [Row]),
    /// A batch, read a column at a time.
    Image(&'a Batch),
}

impl<'a> ColumnSource<'a> {
    /// How many rows the source holds.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ColumnSource::Rows(rows) => rows.len(),
            ColumnSource::Image(batch) => batch.num_rows(),
        }
    }

    /// Whether the source holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column `c` typed, when the source is a batch.
    ///
    /// # Panics
    ///
    /// Panics if the source is a batch and `c` is out of its bounds.
    #[inline]
    pub fn typed(&self, c: usize) -> Option<&'a TypedColumn> {
        match self {
            ColumnSource::Rows(_) => None,
            ColumnSource::Image(batch) => Some(&batch.columns()[c]),
        }
    }

    /// Column `c` of row `p`: read out of the batch (NULL where the
    /// validity flag is clear), or borrowed from the row.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `c` is out of bounds.
    #[inline]
    pub fn cell(&self, p: usize, c: usize) -> ValueRef<'a> {
        match self {
            ColumnSource::Rows(rows) => rows[p][c].view(),
            ColumnSource::Image(batch) => match &batch.columns()[c] {
                (values, valid) if valid[p] => values.view(p),
                _ => ValueRef::Null,
            },
        }
    }
}

impl BoundPredicate<'_> {
    /// Evaluates against a row of the bound schema.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] when the row reaches a leaf
    /// whose column the schema lacks.
    pub fn eval(&self, row: &Row) -> Result<bool> {
        self.0.eval(&|c| row[c].view())
    }

    /// Evaluates against row `p` of `source`, read a cell at a time.
    ///
    /// # Errors
    ///
    /// As [`BoundPredicate::eval`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of `source`'s bounds.
    pub fn eval_at(&self, source: ColumnSource<'_>, p: usize) -> Result<bool> {
        self.0.eval(&|c| source.cell(p, c))
    }

    /// The same predicate over rows whose column `columns[c]` is the
    /// bound schema's column `c` — a projection's source read where it
    /// lies.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is shorter than the bound schema.
    pub fn through(self, columns: &[usize]) -> Self {
        BoundPredicate(self.0.through(columns))
    }

    /// The rows of `source` that satisfy the predicate, in order: of
    /// the positions `rows` (each at most once, any order), or, for
    /// `None`, of every row. What keeping the `p` with
    /// `self.eval_at(source, p)` gives, errors included, evaluated a
    /// column at a time.
    ///
    /// A conjunction makes one pass per column, not one per leaf: its
    /// `Eq`, `Lt`, `Le`, `Gt`, `Ge` and `Between` conjuncts on one typed
    /// column, each with literals of the column's own variant, fold into
    /// one interval, tested in one loop over the typed values — a `Str`
    /// column over the strings in its buffer. `Ne`, `In` and `IsNull`
    /// over such a column loop over the typed values as well. Any other
    /// leaf (a `Bytes` column, a literal of another variant such as an
    /// `Int` column against `5.0`, any column of rows) reads its column
    /// a cell at a time ([`ColumnSource::cell`]). Each pass hands the
    /// next only what it kept; the first pass of a full scan walks its
    /// column and validity flags directly, with no positions to read.
    /// A tree that names an unknown column is evaluated row by row
    /// instead: which row first reaches which unknown leaf decides the
    /// error, and only row order reproduces that. Without one nothing
    /// can fail, so a conjunction may run its conjuncts in any order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] when a selected row reaches a
    /// leaf whose column the schema lacks.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of `source`'s bounds.
    pub fn select(&self, source: ColumnSource<'_>, rows: Option<Vec<u32>>) -> Result<Vec<u32>> {
        if self.0.names_unknown_column() {
            let mut selection = rows.unwrap_or_else(|| every_row(source.len()));
            self.0.retain_by_cells(source, &mut selection)?;
            Ok(selection)
        } else {
            self.0.select(source, rows)
        }
    }
}

impl<'a> Bound<'a> {
    /// [`BoundPredicate::through`].
    fn through(self, columns: &[usize]) -> Self {
        let col = |c| match c {
            BoundColumn::At(idx) => BoundColumn::At(columns[idx]),
            unknown => unknown,
        };
        let both = |p: Box<[Self; 2]>| Box::new(p.map(|b| b.through(columns)));
        match self {
            Bound::True => Bound::True,
            Bound::Range(c, range) => Bound::Range(col(c), range),
            Bound::Ne(c, v) => Bound::Ne(col(c), v),
            Bound::In(c, vs) => Bound::In(col(c), vs),
            Bound::IsNull(c) => Bound::IsNull(col(c)),
            Bound::And(p) => Bound::And(both(p)),
            Bound::Or(p) => Bound::Or(both(p)),
            Bound::Not(p) => Bound::Not(Box::new(p.through(columns))),
        }
    }

    /// Evaluates against one row, `cell` reading its columns.
    fn eval<'v>(&self, cell: &impl Fn(usize) -> ValueRef<'v>) -> Result<bool> {
        Ok(match self {
            Bound::True => true,
            Bound::Range(c, range) => {
                (c.non_null(cell)?).is_some_and(|x| range.holds(&x, |x, v| x.cmp(&v.view())))
            }
            Bound::Ne(c, v) => (c.non_null(cell)?).is_some_and(|x| x != v.view()),
            Bound::In(c, vs) => {
                (c.non_null(cell)?).is_some_and(|x| vs.iter().any(|v| x == v.view()))
            }
            Bound::IsNull(c) => c.non_null(cell)?.is_none(),
            Bound::And(p) => p[0].eval(cell)? && p[1].eval(cell)?,
            Bound::Or(p) => p[0].eval(cell)? || p[1].eval(cell)?,
            Bound::Not(p) => !p.eval(cell)?,
        })
    }

    fn names_unknown_column(&self) -> bool {
        match self {
            Bound::True => false,
            Bound::Range(c, _) | Bound::Ne(c, _) | Bound::In(c, _) | Bound::IsNull(c) => {
                matches!(c, BoundColumn::Unknown(_))
            }
            Bound::And(p) | Bound::Or(p) => p.iter().any(Bound::names_unknown_column),
            Bound::Not(p) => p.names_unknown_column(),
        }
    }

    /// The conjuncts of a conjunction, in order; any other bound is its
    /// own single conjunct.
    fn conjuncts<'s>(&'s self, out: &mut Vec<&'s Bound<'a>>) {
        match self {
            Bound::And(p) => p.iter().for_each(|b| b.conjuncts(out)),
            other => out.push(other),
        }
    }

    /// Keeps the positions whose row of `source` evaluates true, one
    /// row at a time, a cell at a time.
    fn retain_by_cells(&self, source: ColumnSource<'_>, selection: &mut Vec<u32>) -> Result<()> {
        let mut kept = 0;
        for i in 0..selection.len() {
            let p = selection[i];
            if self.eval(&|c| source.cell(p as usize, c))? {
                selection[kept] = p;
                kept += 1;
            }
        }
        selection.truncate(kept);
        Ok(())
    }

    /// [`BoundPredicate::select`] for a tree that names no unknown
    /// column.
    fn select(&self, source: ColumnSource<'_>, rows: Option<Vec<u32>>) -> Result<Vec<u32>> {
        let every = || every_row(source.len());
        match self {
            Bound::True => Ok(rows.unwrap_or_else(every)),
            Bound::And(_) => {
                let mut conjuncts = Vec::new();
                self.conjuncts(&mut conjuncts);
                // Range conjuncts on one typed column, literals of its
                // own variant, fold into one interval.
                let folds = |c: usize, range: &Interval<&Value>| {
                    source.typed(c).is_some_and(|(column, _)| {
                        let own = Some(column.data_type());
                        range.map(|v| (v.data_type() == own).then_some(v)).is_some()
                    })
                };
                let mut folded: Vec<(usize, Interval<&Value>)> = Vec::new();
                let mut rest = Vec::new();
                for conjunct in conjuncts {
                    match conjunct {
                        Bound::Range(BoundColumn::At(c), range) if folds(*c, range) => {
                            match folded.iter_mut().find(|(at, _)| at == c) {
                                Some((_, interval)) => *interval = interval.meet(*range, Ord::cmp),
                                None => folded.push((*c, *range)),
                            }
                        }
                        other => rest.push(other),
                    }
                }
                let folded: Vec<Bound> = (folded.into_iter())
                    .map(|(c, range)| Bound::Range(BoundColumn::At(c), range))
                    .collect();
                let mut rows = rows;
                for conjunct in folded.iter().chain(rest) {
                    rows = Some(conjunct.select(source, rows)?);
                }
                Ok(rows.unwrap_or_else(every))
            }
            Bound::Or(p) => {
                // `b` sees only what `a` rejected; the result is the
                // selection less what both rejected.
                let selection = rows.unwrap_or_else(every);
                let left = p[0].select(source, Some(selection.clone()))?;
                let rest = without(&selection, &left);
                let right = p[1].select(source, Some(rest.clone()))?;
                Ok(without(&selection, &without(&rest, &right)))
            }
            Bound::Not(p) => {
                let selection = rows.unwrap_or_else(every);
                let rejected = p.select(source, Some(selection.clone()))?;
                Ok(without(&selection, &rejected))
            }
            Bound::Range(c, _) | Bound::Ne(c, _) | Bound::In(c, _) | Bound::IsNull(c) => {
                let typed = match c {
                    BoundColumn::At(idx) => source.typed(*idx),
                    BoundColumn::Unknown(_) => None,
                };
                let mut rows = rows;
                let narrowed = typed
                    .and_then(|(column, validity)| self.narrow_typed(column, validity, &mut rows));
                if let Some(kept) = narrowed {
                    return Ok(kept);
                }
                let mut selection = rows.unwrap_or_else(every);
                self.retain_by_cells(source, &mut selection)?;
                Ok(selection)
            }
        }
    }

    /// Narrows `rows` (as [`BoundPredicate::select`] takes them) by this
    /// leaf over a typed column; `None` (and `rows` untouched) when the
    /// column's type or one of the literals has no typed loop.
    fn narrow_typed(
        &self,
        column: &Column,
        validity: &[bool],
        rows: &mut Option<Vec<u32>>,
    ) -> Option<Vec<u32>> {
        if matches!(self, Bound::IsNull(_)) {
            return Some(narrow(rows.take(), validity.len(), |p| !validity[p]));
        }
        // Exactly the same-variant arms of `Value::cmp`.
        let rows = (validity, rows);
        match column {
            Column::Int(xs) => self.narrow_as(
                rows,
                |p| xs[p],
                i64::cmp,
                |v| match v {
                    Value::Int(x) => Some(*x),
                    _ => None,
                },
            ),
            Column::Timestamp(xs) => self.narrow_as(
                rows,
                |p| xs[p],
                i64::cmp,
                |v| match v {
                    Value::Timestamp(x) => Some(*x),
                    _ => None,
                },
            ),
            Column::Float(xs) => self.narrow_as(
                rows,
                |p| xs[p],
                f64::total_cmp,
                |v| match v {
                    Value::Float(x) => Some(*x),
                    _ => None,
                },
            ),
            Column::Bool(xs) => self.narrow_as(rows, |p| xs[p], bool::cmp, Value::as_bool),
            Column::Str(xs) => {
                let cmp = |x: &&str, literal: &&str| (**x).cmp(*literal);
                self.narrow_as(rows, |p| xs.get(p), cmp, Value::as_str)
            }
            Column::Bytes(_) => None,
        }
    }

    /// [`Bound::narrow_typed`] for one type: `at` reads the column's
    /// value at a row, `literal` takes a literal of the column's variant
    /// apart, `cmp` orders a value against a literal as `Value::cmp`
    /// orders that variant. A NULL never matches.
    fn narrow_as<T, L>(
        &self,
        (validity, rows): (&[bool], &mut Option<Vec<u32>>),
        at: impl Fn(usize) -> T,
        cmp: impl Fn(&T, &L) -> Ordering,
        literal: impl Fn(&'a Value) -> Option<L>,
    ) -> Option<Vec<u32>> {
        let n = validity.len();
        Some(match self {
            Bound::Range(_, range) => {
                let Interval { lo, hi } = range.map(&literal)?;
                // A loop for each kind of lower bound (open, inclusive,
                // exclusive), and within it of upper bound: no row asks
                // which kind it meets.
                let rows = (validity, rows.take());
                match lo {
                    None => narrow_below(rows, at, &cmp, hi, |_| true),
                    Some((lo, true)) => narrow_below(rows, at, &cmp, hi, |x| cmp(x, &lo).is_ge()),
                    Some((lo, false)) => narrow_below(rows, at, &cmp, hi, |x| cmp(x, &lo).is_gt()),
                }
            }
            Bound::Ne(_, v) => {
                let v = literal(v)?;
                narrow(rows.take(), n, |p| validity[p] && cmp(&at(p), &v).is_ne())
            }
            Bound::In(_, vs) => {
                let vs = vs.iter().map(&literal).collect::<Option<Vec<L>>>()?;
                narrow(rows.take(), n, |p| {
                    validity[p] && {
                        let x = at(p);
                        vs.iter().any(|v| cmp(&x, v).is_eq())
                    }
                })
            }
            _ => return None,
        })
    }
}

/// The rows of `rows` (as [`narrow`] takes them) whose value `at` reads
/// is valid, accepted by `above` and no greater than `hi`'s literal
/// (less, if it is exclusive), `cmp` ordering a value against it.
fn narrow_below<T, L>(
    (validity, rows): (&[bool], Option<Vec<u32>>),
    at: impl Fn(usize) -> T,
    cmp: impl Fn(&T, &L) -> Ordering,
    hi: Option<(L, bool)>,
    above: impl Fn(&T) -> bool,
) -> Vec<u32> {
    let n = validity.len();
    let inside = |p: usize, below: fn(Ordering) -> bool, hi: &L| {
        let x = at(p);
        validity[p] & above(&x) & below(cmp(&x, hi))
    };
    match hi {
        None => narrow(rows, n, |p| validity[p] & above(&at(p))),
        Some((hi, true)) => narrow(rows, n, |p| inside(p, Ordering::is_le, &hi)),
        Some((hi, false)) => narrow(rows, n, |p| inside(p, Ordering::is_lt, &hi)),
    }
}

/// Positions `0..n`: every row of a source of `n`.
fn every_row(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// The rows `keep` accepts, in order: of the positions `rows`, or, for
/// `None`, of every row of a source of `n`, counted rather than read.
fn narrow(rows: Option<Vec<u32>>, n: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    match rows {
        Some(positions) => compact(positions, |i, positions| positions[i], keep),
        None => compact(vec![0; n], |i, _| i as u32, keep),
    }
}

/// The one narrowing loop: writes over `kept_rows` the positions, in
/// order, of the rows `keep` accepts, the `i`-th read by
/// `position(i, kept_rows)`, without a branch on the answer.
fn compact(
    mut kept_rows: Vec<u32>,
    position: impl Fn(usize, &[u32]) -> u32,
    keep: impl Fn(usize) -> bool,
) -> Vec<u32> {
    let mut kept = 0;
    for i in 0..kept_rows.len() {
        let p = position(i, &kept_rows);
        kept_rows[kept] = p;
        kept += usize::from(keep(p as usize));
    }
    kept_rows.truncate(kept);
    kept_rows
}

/// `selection` less the positions of `removed`, which must be a
/// subsequence of it.
fn without(selection: &[u32], removed: &[u32]) -> Vec<u32> {
    let mut removed = removed.iter().peekable();
    let rest: Vec<u32> = selection
        .iter()
        .copied()
        .filter(|p| removed.next_if_eq(&p).is_none())
        .collect();
    debug_assert!(removed.next().is_none(), "not a subsequence");
    rest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{row, DataType};

    fn schema() -> Schema {
        Schema::new(vec![("a", DataType::Int), ("s", DataType::Str)])
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row![5i64, "x"];
        assert!(Predicate::eq("a", 5i64).eval(&s, &r).unwrap());
        assert!(Predicate::Ne("a".into(), Value::Int(4))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::between("a", 1i64, 9i64).eval(&s, &r).unwrap());
        assert!(Predicate::In("s".into(), vec!["x".into(), "y".into()])
            .eval(&s, &r)
            .unwrap());
        assert!(!Predicate::lt("a", 5i64).eval(&s, &r).unwrap());
    }

    #[test]
    fn null_never_matches_comparison() {
        let s = schema();
        let r = Row::from(vec![Value::Null, Value::from("x")]);
        assert!(!Predicate::eq("a", 5i64).eval(&s, &r).unwrap());
        assert!(!Predicate::Ne("a".into(), Value::Int(5))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::IsNull("a".into()).eval(&s, &r).unwrap());
    }

    #[test]
    fn boolean_composition() {
        let s = schema();
        let r = row![5i64, "x"];
        let p = Predicate::gt("a", 0i64)
            .and(Predicate::eq("s", "x"))
            .or(Predicate::eq("a", -1i64));
        assert!(p.eval(&s, &r).unwrap());
        assert!(!p.clone().not().eval(&s, &r).unwrap());
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        assert!(Predicate::eq("zzz", 1i64)
            .eval(&s, &row![1i64, "x"])
            .is_err());
    }

    #[test]
    fn select_keeps_what_eval_keeps_in_selection_order() {
        let s = schema();
        let rows: Vec<Row> = [Some(3), None, Some(0), Some(5), Some(3), None]
            .into_iter()
            .zip([Some("x"), Some("y"), None, Some("zé"), Some(""), Some("x")])
            .map(|(a, t)| Row::from(vec![a.map_or(Value::Null, Value::Int), t.into()]))
            .collect();
        let image = Batch::from_rows(&s, rows.clone()).unwrap();
        let in_set = |vs: Vec<Value>| Predicate::In("a".into(), vs);
        let predicates = [
            Predicate::True,
            Predicate::ge("a", 3i64),
            Predicate::Ne("a".into(), Value::Int(3)),
            // NULL is stored as 0 and must match neither of these.
            Predicate::eq("a", 0i64),
            Predicate::between("a", -1i64, 3i64),
            Predicate::between("a", 3i64, -1i64),
            in_set(vec![]),
            in_set(vec![5i64.into(), 0i64.into()]),
            // Literals of another variant go through the row.
            Predicate::eq("a", 3.0),
            Predicate::gt("a", Value::Null),
            in_set(vec![5i64.into(), 0.0.into()]),
            Predicate::IsNull("a".into()),
            Predicate::IsNull("s".into()),
            Predicate::eq("s", "x"),
            // A NULL string is held as "" and must match none of these.
            Predicate::eq("s", ""),
            Predicate::lt("s", "y"),
            Predicate::between("s", "", "x"),
            Predicate::In("s".into(), vec!["zé".into(), "".into()]),
            Predicate::gt("s", 1i64),
            Predicate::ge("a", 3i64).and(Predicate::eq("s", "y")),
            Predicate::ge("a", 4i64).or(Predicate::eq("s", "x")),
            Predicate::ge("a", 3i64).not(),
            Predicate::eq("s", "x")
                .or(Predicate::lt("a", 1i64).not())
                .and(Predicate::IsNull("a".into()).not()),
            // Conjunctions that fold into one interval: a half-open one,
            // one pinched to a point, an empty one; and one whose `Float`
            // literal does not fold.
            Predicate::ge("a", 0i64).and(Predicate::lt("a", 5i64)),
            Predicate::gt("a", 0i64).and(Predicate::le("a", 3i64).and(Predicate::ge("a", 3i64))),
            Predicate::gt("a", 3i64).and(Predicate::le("a", 3i64)),
            Predicate::between("s", "", "x").and(Predicate::gt("s", "")),
            Predicate::ge("a", 3i64).and(Predicate::lt("a", 5.0)),
        ];
        // Every row; ascending, and an index's order: any, each position
        // once. Over the rows (every leaf a cell at a time) and over their
        // batch.
        let selections = [
            None,
            Some(vec![0, 1, 2, 3, 4, 5]),
            Some(vec![4, 2, 5, 0, 3]),
            Some(vec![]),
        ];
        for source in [ColumnSource::Rows(&rows), ColumnSource::Image(&image)] {
            for selection in &selections {
                for p in &predicates {
                    let read = selection.clone().unwrap_or_else(|| (0..6).collect());
                    let want: Vec<u32> = read
                        .into_iter()
                        .filter(|&i| p.eval(&s, &rows[i as usize]).unwrap())
                        .collect();
                    let got = p.bind(&s).select(source, selection.clone()).unwrap();
                    assert_eq!(got, want, "{p:?} over {selection:?}");
                }
            }
        }
    }

    #[test]
    fn select_raises_the_error_row_order_raises() {
        let s = schema();
        let rows = vec![row![1i64, "x"], row![2i64, "y"]];
        let image = Batch::from_rows(&s, rows.clone()).unwrap();
        let source = ColumnSource::Image(&image);
        let select = |p: &Predicate, selection| p.bind(&s).select(source, Some(selection));
        let missing = |name: &str| Err(Error::ColumnNotFound(name.to_owned()));
        // Row 0 fails the left side and reaches `zzz`; evaluating the
        // left column first for every row would reach `yyy` (row 1).
        let p = Predicate::eq("a", 2i64)
            .and(Predicate::eq("yyy", 1i64))
            .or(Predicate::eq("zzz", 1i64));
        assert_eq!(select(&p, vec![0, 1]), missing("zzz"));
        assert_eq!(select(&p, vec![1, 0]), missing("yyy"));
        // A leaf no row reaches raises nothing.
        let p = Predicate::eq("a", 9i64).and(Predicate::eq("zzz", 1i64));
        assert_eq!(select(&p, vec![0, 1]), Ok(vec![]));
        assert_eq!(select(&Predicate::eq("zzz", 1i64), vec![]), Ok(vec![]));
    }

    #[test]
    fn conjuncts_split_and_rejoin_in_evaluation_order() {
        let (a, b, c) = (
            Predicate::eq("a", 1i64),
            Predicate::eq("s", "x").or(Predicate::eq("a", 2i64)),
            Predicate::IsNull("s".into()),
        );
        let expect = vec![a.clone(), b.clone(), c.clone()];
        let left_nested = a.clone().and(b.clone()).and(c.clone());
        let right_nested = a.and(b.and(c));
        assert_eq!(right_nested.into_conjuncts(), expect);
        assert_eq!(left_nested.clone().into_conjuncts(), expect);
        assert_eq!(Predicate::all(expect), left_nested);
        assert_eq!(Predicate::all([]), Predicate::True);
    }

    #[test]
    fn columns_and_renaming_cover_every_leaf() {
        let p = Predicate::eq("a", 1i64)
            .or(Predicate::between("s", "a", "b").not())
            .and(Predicate::In("a".into(), vec![]));
        assert_eq!(p.columns(), vec!["a", "s", "a"]);
        let renamed = p.rename_columns(&|c: &str| format!("{c}_r"));
        assert_eq!(renamed.columns(), vec!["a_r", "s_r", "a_r"]);
    }

    #[test]
    fn index_bounds_extraction() {
        let p = Predicate::eq("k", 5i64).and(Predicate::gt("v", 1i64));
        let (c, lo, hi) = p.index_bounds().unwrap();
        assert_eq!(c, "k");
        assert_eq!(lo, Some(&Value::Int(5)));
        assert_eq!(hi, Some(&Value::Int(5)));
        assert!(Predicate::IsNull("k".into()).index_bounds().is_none());
    }

    #[test]
    fn selectivity_sane() {
        assert!(Predicate::True.selectivity() == 1.0);
        let and = Predicate::eq("a", 1i64).and(Predicate::eq("s", "x"));
        assert!(and.selectivity() < Predicate::eq("a", 1i64).selectivity());
        // `NOT TRUE` and an empty `IN` used to come out as 0.
        for p in [
            Predicate::eq("a", 1i64),
            Predicate::between("a", 1i64, 2i64),
            Predicate::IsNull("a".into()),
            Predicate::True.not(),
            Predicate::In("a".into(), vec![]),
        ] {
            let s = p.selectivity();
            assert!(s > 0.0 && s <= 1.0);
        }
    }
}
