//! Datasets: the values flowing along IR edges at runtime.

use std::sync::{Arc, OnceLock};

use pspp_common::{DataModel, EngineId, Error, OutputDigest, Result, Routes, Row, Schema};
use pspp_mlengine::Mlp;
use pspp_relstore::{Selected, Selection};

/// A dataset's rows: one immutable buffer shared by every clone.
///
/// Cloning is a reference-count bump, so a dataset handed to several
/// consumers (task inputs, per-shard partials, forwards, report
/// outputs) is never copied. Reading derefs to `[Row]`. There are two
/// writers, and both copy the buffer first when anyone else still holds
/// it: [`RowBuf::append`], which keeps a known byte size known, and
/// [`RowBuf::make_mut`], which forgets it. Rows leave a buffer by move
/// only when nobody else holds it.
///
/// A relational scan's buffer holds a [`Selection`] — the kept
/// positions over the table's snapshot, its column image, the one copy
/// of the table's data — instead of rows, and so does a migration's:
/// every row of the batch the codec decoded. An exchange of selections
/// keeps them one: a gather appends the shards' selections into one over
/// every shard's snapshot, and a shuffle splits each shard's positions
/// by destination into the buckets it hands on. A projection of a
/// selection is one too, exposing the projected columns. The relational
/// kernels, the joins among them, the migration codec and the ML
/// adapters (features, and the rows they append a column to) read it
/// where it lies ([`RowBuf::selected`]); its length and byte size come
/// from the positions and the snapshots' widths. Its rows are built out
/// of the snapshots on the first deref, once for every holder: by the text
/// and timeseries adapters, by the routing of a shuffle producer that
/// is not a scan, and for the output. The
/// executor builds every program output before it returns, so no
/// selection outlives the run that made it.
#[derive(Clone, Default)]
pub struct RowBuf(Arc<Shared>);

#[derive(Clone, Default)]
struct Shared {
    /// The rows; none while the buffer is a selection.
    rows: Vec<Row>,
    /// A scan's or a migration's selection, and its rows once somebody
    /// has read them.
    selection: Option<(Selection, OnceLock<Vec<Row>>)>,
    /// Payload bytes of the rows, summed on first use: every clone of
    /// the buffer prices the same rows, so they are walked once.
    byte_size: OnceLock<u64>,
}

impl Shared {
    fn rows(&self) -> &[Row] {
        match &self.selection {
            Some((selection, built)) => built.get_or_init(|| selection.rows()),
            None => &self.rows,
        }
    }

    /// The byte size, when known without walking rows.
    fn known_byte_size(&self) -> Option<u64> {
        let selected = || self.selection.as_ref().map(|(s, _)| s.byte_size());
        self.byte_size.get().copied().or_else(selected)
    }
}

impl RowBuf {
    /// A buffer whose payload bytes the producer already knows (a join
    /// or a group-by sums them as it builds its rows): `byte_size` must be
    /// the sum of [`Row::byte_size`] over `rows`, and is never walked
    /// for.
    pub fn pre_sized(rows: Vec<Row>, byte_size: u64) -> Self {
        RowBuf::from(rows).sized(byte_size)
    }

    /// This buffer, known to hold `byte_size` payload bytes: the sum of
    /// [`Row::byte_size`] over its rows, or a selection's
    /// [`Selection::byte_size`], checked in debug builds and never
    /// walked for.
    pub(crate) fn sized(mut self, byte_size: u64) -> Self {
        debug_assert_eq!(
            byte_size,
            match self.as_selection() {
                Some(selection) => selection.byte_size(),
                None => self.0.rows.iter().map(|r| r.byte_size() as u64).sum(),
            }
        );
        Arc::make_mut(&mut self.0).byte_size = OnceLock::from(byte_size);
        self
    }

    /// The rows `selection` keeps, not yet built.
    pub fn selection(selection: Selection) -> Self {
        RowBuf(Arc::new(Shared {
            rows: Vec::new(),
            selection: Some((selection, OnceLock::new())),
            byte_size: OnceLock::new(),
        }))
    }

    /// The selection this buffer holds, if it holds one.
    pub fn as_selection(&self) -> Option<&Selection> {
        self.0.selection.as_ref().map(|(selection, _)| selection)
    }

    /// What the relational kernels read: a selection's positions over
    /// its snapshot, or every row.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] as [`Selected::all`] does.
    pub fn selected(&self) -> Result<Selected<'_>> {
        match self.as_selection() {
            Some(selection) => Ok(selection.selected()),
            None => Selected::all(&self.0.rows),
        }
    }

    /// The rows at `positions` of [`RowBuf::selected`]'s source, in that
    /// order — a kernel's answer over it: a selection of a selection,
    /// copies of the row pointers otherwise. `byte_size` is their
    /// payload bytes when the caller knows them; rows copied without it
    /// are summed as they are copied.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for a position past the source.
    pub fn pick(&self, positions: Vec<u32>, byte_size: Option<u64>) -> Result<RowBuf> {
        if let Some(selection) = self.as_selection() {
            let picked = RowBuf::selection(selection.with_positions(positions)?);
            if let Some(bytes) = byte_size {
                picked.0.byte_size.get_or_init(|| bytes);
            }
            return Ok(picked);
        }
        let mut bytes = 0u64;
        let rows = positions
            .iter()
            .map(|&p| {
                let row = self.0.rows.get(p as usize).ok_or_else(|| {
                    Error::Invalid(format!("position {p} of {} rows", self.0.rows.len()))
                })?;
                if byte_size.is_none() {
                    bytes += row.byte_size() as u64;
                }
                Ok(row.clone())
            })
            .collect::<Result<_>>()?;
        Ok(RowBuf::pre_sized(rows, byte_size.unwrap_or(bytes)))
    }

    /// The first `n` rows (all of them when there are fewer), as
    /// [`pspp_relstore::ops::limit`] takes them.
    pub fn prefix(&self, n: usize) -> RowBuf {
        match self.as_selection() {
            Some(selection) => RowBuf::selection(selection.prefix(n)),
            None => RowBuf::from(pspp_relstore::ops::limit(&self.0.rows, n)),
        }
    }

    /// Number of rows, built or not.
    pub fn len(&self) -> usize {
        self.as_selection()
            .map_or(self.0.rows.len(), Selection::len)
    }

    /// Whether the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes (sum of [`Row::byte_size`]): a selection's from the
    /// table's widths.
    pub fn byte_size(&self) -> u64 {
        let sum = || {
            self.0
                .known_byte_size()
                .unwrap_or_else(|| self.iter().map(|r| r.byte_size() as u64).sum())
        };
        *self.0.byte_size.get_or_init(sum)
    }

    /// Appends `more`'s rows, by pointer (a gather). When both buffers
    /// already know their byte sizes the result knows the sum, so a
    /// gather of sized partials is never walked; otherwise the size is
    /// left to be summed on first use. Two selections append into one
    /// over both's snapshots ([`Selection::concat`]), and nothing is
    /// built; any other pair appends rows, and a buffer shared with
    /// other holders is copied first, as in [`RowBuf::make_mut`].
    pub fn append(&mut self, more: &RowBuf) {
        self.append_owned(more.clone());
    }

    /// [`RowBuf::append`] taking `more` itself: its rows move over when
    /// `more` is their buffer's only holder, and are copied (row
    /// pointers) otherwise. Appended to an empty buffer, `more` is the
    /// result as it is.
    pub(crate) fn append_owned(&mut self, more: RowBuf) {
        if self.is_empty() {
            *self = more;
            return;
        }
        let known = match (self.0.known_byte_size(), more.0.known_byte_size()) {
            (Some(a), Some(b)) => OnceLock::from(a + b),
            _ => OnceLock::new(),
        };
        // Two selections a position tag cannot address together (too
        // many snapshots, or one too large) are appended as rows.
        let joined = match (self.as_selection(), more.as_selection()) {
            (Some(a), Some(b)) => a.concat(b).ok(),
            _ => None,
        };
        if let Some(selection) = joined {
            *self = RowBuf(Arc::new(Shared {
                rows: Vec::new(),
                selection: Some((selection, OnceLock::new())),
                byte_size: known,
            }));
            return;
        }
        let shared = self.shared_mut();
        shared.rows.extend(more.into_rows());
        shared.byte_size = known;
    }

    /// The rows: moved out when this is the buffer's only holder, a copy
    /// of the row pointers otherwise. A selection nobody has read yet is
    /// built for the caller alone.
    pub(crate) fn into_rows(self) -> Vec<Row> {
        match Arc::try_unwrap(self.0) {
            Ok(Shared {
                selection: Some((selection, built)),
                ..
            }) => built.into_inner().unwrap_or_else(|| selection.rows()),
            Ok(shared) => shared.rows,
            Err(shared) => match &shared.selection {
                Some((selection, built)) => {
                    built.get().cloned().unwrap_or_else(|| selection.rows())
                }
                None => shared.rows.clone(),
            },
        }
    }

    /// This buffer with its rows built, and known to be: a selection
    /// gives way to the rows it selects; rows stay as they are.
    pub(crate) fn built(self) -> RowBuf {
        if self.as_selection().is_none() {
            return self;
        }
        let byte_size = self.byte_size();
        RowBuf::pre_sized(self.into_rows(), byte_size)
    }

    /// The buffer for writing: its rows built and held by nobody else.
    fn shared_mut(&mut self) -> &mut Shared {
        if self.as_selection().is_some() {
            *self = RowBuf::from(std::mem::take(self).into_rows());
        }
        Arc::make_mut(&mut self.0)
    }

    /// The rows for writing. A buffer shared with other holders is
    /// copied first (row pointers, not values), so they never see the
    /// change.
    pub fn make_mut(&mut self) -> &mut Vec<Row> {
        let shared = self.shared_mut();
        shared.byte_size = OnceLock::new();
        &mut shared.rows
    }

    /// The byte size if the buffer knows it without a walk — how tests
    /// tell a carried size from one summed on demand.
    #[cfg(test)]
    pub(crate) fn known_byte_size(&self) -> Option<u64> {
        self.0.known_byte_size()
    }

    /// Whether the buffer is a selection nobody has built rows of — how
    /// tests tell a kernel that read it where it lies from one that
    /// derefed it.
    #[cfg(test)]
    pub(crate) fn is_unbuilt_selection(&self) -> bool {
        matches!(&self.0.selection, Some((_, built)) if built.get().is_none())
    }

    /// Whether `self` and `other` are one buffer (clones of each
    /// other), not merely equal.
    pub fn ptr_eq(&self, other: &RowBuf) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Renders as the list of rows: what a reader of a report or a test
/// failure needs, independent of who shares the buffer or whether its
/// size has been asked for yet.
impl std::fmt::Debug for RowBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl std::ops::Deref for RowBuf {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        self.0.rows()
    }
}

impl From<Vec<Row>> for RowBuf {
    fn from(rows: Vec<Row>) -> Self {
        RowBuf(Arc::new(Shared {
            rows,
            selection: None,
            byte_size: OnceLock::new(),
        }))
    }
}

impl<'a> IntoIterator for &'a RowBuf {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// What a dataset holds.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Tabular rows with a schema.
    Rows {
        /// Row schema.
        schema: Schema,
        /// The rows.
        rows: RowBuf,
    },
    /// A trained model (output of `TrainMlp`).
    Model(Box<Mlp>),
}

/// A dataset: payload + data model + current location.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The payload.
    pub payload: Payload,
    /// The logical data model the payload is expressed in.
    pub model: DataModel,
    /// The engine currently holding the data (`middleware` for values
    /// materialized at the coordinator).
    pub location: EngineId,
}

impl Dataset {
    /// A relational rows dataset.
    pub fn rows(schema: Schema, rows: Vec<Row>, model: DataModel, location: EngineId) -> Self {
        Dataset::from_buf(schema, rows.into(), model, location)
    }

    /// A rows dataset over a buffer as it is (a scan's selection, say).
    pub fn from_buf(schema: Schema, rows: RowBuf, model: DataModel, location: EngineId) -> Self {
        Dataset {
            payload: Payload::Rows { schema, rows },
            model,
            location,
        }
    }

    /// A rows dataset whose producer already knows its payload bytes —
    /// it summed them while it built or moved the rows — so nobody
    /// walks them to price them (see [`RowBuf::pre_sized`]).
    pub fn sized_rows(
        schema: Schema,
        rows: Vec<Row>,
        byte_size: u64,
        model: DataModel,
        location: EngineId,
    ) -> Self {
        Dataset::from_buf(schema, RowBuf::pre_sized(rows, byte_size), model, location)
    }

    /// The schema, when tabular.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] for model payloads.
    pub fn schema(&self) -> Result<&Schema> {
        match &self.payload {
            Payload::Rows { schema, .. } => Ok(schema),
            Payload::Model(_) => Err(Error::Execution("dataset holds a model, not rows".into())),
        }
    }

    /// The rows, when tabular.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] for model payloads.
    pub fn try_rows(&self) -> Result<&[Row]> {
        Ok(self.row_buf()?)
    }

    /// The rows' buffer, when tabular.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] for model payloads.
    pub fn row_buf(&self) -> Result<&RowBuf> {
        match &self.payload {
            Payload::Rows { rows, .. } => Ok(rows),
            Payload::Model(_) => Err(Error::Execution("dataset holds a model, not rows".into())),
        }
    }

    /// The trained model, when present.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] for tabular payloads.
    pub fn try_model(&self) -> Result<&Mlp> {
        match &self.payload {
            Payload::Model(m) => Ok(m),
            Payload::Rows { .. } => Err(Error::Execution("dataset holds rows, not a model".into())),
        }
    }

    /// Number of rows (0 for models).
    pub fn len(&self) -> usize {
        match &self.payload {
            Payload::Rows { rows, .. } => rows.len(),
            Payload::Model(_) => 0,
        }
    }

    /// Whether the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes.
    pub fn byte_size(&self) -> u64 {
        match &self.payload {
            Payload::Rows { rows, .. } => rows.byte_size(),
            Payload::Model(m) => (m.parameter_count() * 8) as u64,
        }
    }

    /// This dataset with its rows built (see [`RowBuf`]): what a report
    /// may hold.
    pub(crate) fn built(mut self) -> Dataset {
        if let Payload::Rows { rows, .. } = &mut self.payload {
            *rows = std::mem::take(rows).built();
        }
        self
    }

    /// Takes the rows out, leaving none behind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] for model payloads.
    pub(crate) fn take_rows(&mut self) -> Result<RowBuf> {
        match &mut self.payload {
            Payload::Rows { rows, .. } => Ok(std::mem::take(rows)),
            Payload::Model(_) => Err(Error::Execution("dataset holds a model, not rows".into())),
        }
    }
}

/// What `outputs` returned, as [`OutputDigest`] defines it: each row
/// set as its schema and row multiset, each model as its layers'
/// weights and biases. Where an output sits and its rows' order are
/// not part of it.
pub fn output_digest(outputs: &[Dataset]) -> u64 {
    let mut digest = OutputDigest::new();
    for output in outputs {
        match &output.payload {
            Payload::Rows { schema, rows } => digest.rows(schema, rows),
            Payload::Model(model) => {
                for (weights, biases) in model.layers() {
                    digest.tensor(&[weights.rows(), weights.cols()], weights.as_slice());
                    digest.tensor(&[biases.len()], biases);
                }
            }
        }
    }
    digest.finish()
}

/// A producer's output split for a shuffle: each destination's rows in
/// the order the gathered output would hold them, their payload bytes,
/// and each row's destination in that gathered output's order. Partials
/// are pushed in gather (shard) order, so destination `d` holds exactly
/// the rows [`pspp_common::Distribution::route_indices`] picks out of the
/// gathered rows for `d`, and [`origins`] of the destinations is that
/// index list. A destination pushed only scans' selections holds a
/// selection over their snapshots, and no row is built; its bucket's
/// known byte size is the routes' sum, which a debug build checks
/// against the selection's.
#[derive(Debug)]
pub(crate) struct Routed {
    schema: Schema,
    model: DataModel,
    location: EngineId,
    /// Each destination's rows so far, appended partial by partial.
    buckets: Vec<RowBuf>,
    bytes: Vec<u64>,
    /// Each row pushed so far, its destination, in gather order.
    dests: Vec<u32>,
}

impl Routed {
    /// No rows yet: `width` destinations for rows shaped as `like`'s.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] when `like` holds a model.
    pub(crate) fn new(like: &Dataset, width: usize) -> Result<Self> {
        Ok(Routed {
            schema: like.schema()?.clone(),
            model: like.model,
            location: like.location.clone(),
            buckets: vec![RowBuf::default(); width],
            bytes: vec![0; width],
            dests: Vec::new(),
        })
    }

    /// Appends the next partial in gather order, row `i` to destination
    /// `routes.dests[i]`: a selection's positions split into one
    /// selection per destination ([`pspp_relstore::Selection::split`]),
    /// rows by move when `rows` is their buffer's only holder and as row
    /// pointers otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] when `routes` does not cover `rows`
    /// or names another number of destinations.
    pub(crate) fn push(&mut self, rows: RowBuf, routes: &Routes) -> Result<()> {
        let width = self.buckets.len();
        let mismatch = || {
            Error::Execution(format!(
                "routes of {} rows over {} destinations for {} rows over {width}",
                routes.dests.len(),
                routes.bytes.len(),
                rows.len()
            ))
        };
        if routes.dests.len() != rows.len() || routes.bytes.len() != width {
            return Err(mismatch());
        }
        let mut counts = vec![0usize; width];
        for &d in &routes.dests {
            *counts.get_mut(d as usize).ok_or_else(mismatch)? += 1;
        }
        self.dests.extend_from_slice(&routes.dests);
        let parts: Vec<RowBuf> = match rows.as_selection() {
            Some(selection) => (selection.split(&routes.dests, width)?.into_iter())
                .zip(&routes.bytes)
                .map(|(part, &bytes)| RowBuf::selection(part).sized(bytes))
                .collect(),
            None => {
                let mut split: Vec<Vec<Row>> = counts.into_iter().map(Vec::with_capacity).collect();
                for (row, &d) in rows.into_rows().into_iter().zip(&routes.dests) {
                    split[d as usize].push(row);
                }
                split.into_iter().map(RowBuf::from).collect()
            }
        };
        for (bucket, part) in self.buckets.iter_mut().zip(parts) {
            bucket.append_owned(part);
        }
        for (total, bytes) in self.bytes.iter_mut().zip(&routes.bytes) {
            *total += bytes;
        }
        Ok(())
    }

    /// Rows over every destination.
    pub(crate) fn len(&self) -> usize {
        self.dests.len()
    }

    /// Payload bytes over every destination.
    pub(crate) fn byte_size(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// One sized dataset per destination, and each row's destination
    /// in gather order (read by [`origins`] where they are wanted).
    pub(crate) fn into_buckets(self) -> (Vec<Dataset>, Vec<u32>) {
        let Routed {
            schema,
            model,
            location,
            buckets,
            bytes,
            dests,
        } = self;
        let buckets = buckets
            .into_iter()
            .zip(bytes)
            .map(|(rows, bytes)| {
                Dataset::from_buf(schema.clone(), rows.sized(bytes), model, location.clone())
            })
            .collect();
        (buckets, dests)
    }
}

/// Each of `buckets`' origins: the gather-order indices of the rows
/// `dests` sends there, ascending. `buckets` and `dests` are what
/// [`Routed::into_buckets`] returns; each bucket's length sizes its
/// origins.
pub(crate) fn origins(buckets: &[Dataset], dests: &[u32]) -> Vec<Vec<usize>> {
    let mut origins: Vec<Vec<usize>> = buckets
        .iter()
        .map(|b| Vec::with_capacity(b.len()))
        .collect();
    for (i, &d) in dests.iter().enumerate() {
        origins[d as usize].push(i);
    }
    origins
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataType};

    #[test]
    fn accessors_respect_payload_kind() {
        let d = Dataset::rows(
            Schema::new(vec![("a", DataType::Int)]),
            vec![row![1i64]],
            DataModel::Relational,
            EngineId::new("db1"),
        );
        assert_eq!(d.len(), 1);
        assert!(d.schema().is_ok());
        assert!(d.try_model().is_err());
        assert_eq!(d.byte_size(), 8);

        let m = Mlp::new(&[2, 1], 1).unwrap();
        let dm = Dataset {
            payload: Payload::Model(Box::new(m)),
            model: DataModel::Tensor,
            location: EngineId::new("middleware"),
        };
        assert!(dm.try_rows().is_err());
        assert!(dm.try_model().is_ok());
        assert!(dm.is_empty());
        assert!(dm.byte_size() > 0);
    }

    #[test]
    fn output_digest_ignores_location_and_order_and_covers_models() {
        let schema = Schema::new(vec![("a", DataType::Int), ("s", DataType::Str)]);
        let rows = vec![row![1i64, "x"], row![2i64, "y"], row![2i64, "y"]];
        let at = |rows: Vec<Row>, engine: &str| {
            Dataset::rows(
                schema.clone(),
                rows,
                DataModel::Relational,
                EngineId::new(engine),
            )
        };
        let reversed = rows.iter().rev().cloned().collect();
        let want = output_digest(&[at(rows.clone(), "db1")]);
        assert_eq!(output_digest(&[at(reversed, "db2")]), want);
        assert_ne!(output_digest(&[at(rows[..2].to_vec(), "db1")]), want);

        let model = |seed| Dataset {
            payload: Payload::Model(Box::new(Mlp::new(&[2, 3, 1], seed).unwrap())),
            model: DataModel::Tensor,
            location: EngineId::new("middleware"),
        };
        assert_eq!(output_digest(&[model(1)]), output_digest(&[model(1)]));
        assert_ne!(output_digest(&[model(1)]), output_digest(&[model(2)]));
        assert_ne!(
            output_digest(&[model(1), at(rows.clone(), "db1")]),
            output_digest(&[at(rows, "db1"), model(1)])
        );
    }

    fn walked(rows: &[Row]) -> u64 {
        rows.iter().map(|r| r.byte_size() as u64).sum()
    }

    #[test]
    fn append_keeps_a_known_size_and_make_mut_forgets_it() {
        let a = vec![row![1i64, "ab"], row![2i64, "c"]];
        let b = vec![row![3i64, "def"]];
        let sized = |rows: &[Row]| RowBuf::pre_sized(rows.to_vec(), walked(rows));
        let all = [a.clone(), b.clone()].concat();

        // Known + known: the sum, without a walk.
        let mut gathered = sized(&a);
        gathered.append(&sized(&b));
        assert_eq!(&gathered[..], &all[..]);
        assert_eq!(gathered.known_byte_size(), Some(walked(&all)));

        // Known + unknown (either way round): unknown until asked, then
        // the walked sum.
        for (mut first, second) in [
            (sized(&a), RowBuf::from(b.clone())),
            (RowBuf::from(a.clone()), sized(&b)),
        ] {
            first.append(&second);
            assert_eq!(first.known_byte_size(), None);
            assert_eq!(first.byte_size(), walked(&all));
            assert_eq!(first.known_byte_size(), Some(walked(&all)));
        }

        // The other writer still forgets.
        gathered.make_mut().pop();
        assert_eq!(gathered.known_byte_size(), None);
        assert_eq!(gathered.byte_size(), walked(&a));
    }

    #[test]
    fn append_to_a_shared_buffer_leaves_the_other_holder_alone() {
        let a = vec![row![1i64], row![2i64]];
        let partial = RowBuf::pre_sized(a.clone(), 16);
        let mut gathered = partial.clone();
        gathered.append(&RowBuf::pre_sized(vec![row![3i64]], 8));
        assert!(!gathered.ptr_eq(&partial));
        assert_eq!(
            (&partial[..], partial.known_byte_size()),
            (&a[..], Some(16))
        );
        assert_eq!((gathered.len(), gathered.known_byte_size()), (3, Some(24)));
    }
}
