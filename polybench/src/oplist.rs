//! Seed → op list. The templates, their counts and the order of the
//! list are constants; `--seed` draws only the parameters (where a
//! range starts, which keys are looked up). Every range has a fixed
//! width, so two seeds do the same amount of work on different rows and
//! the wall metrics of two seeds are comparable.

use pspp_common::SplitMix64;
use pspp_frontend::{HeterogeneousProgram, Language};

/// Admission dates are uniform in `0..DATE_SPAN` (see `datagen`).
const DATE_SPAN: i64 = 3650;
/// Patient ages are uniform in `AGE_LO..AGE_HI`.
const AGE_LO: i64 = 18;
const AGE_HI: i64 = 95;

/// Parameter draws per OLAP template.
pub const OLAP_DRAWS: usize = 6;
/// Tickets submitted before the client waits on any of them.
pub const BATCH: usize = 32;
/// Distinct texts of `serve_hot`: half of either cache's 256 entries.
pub const HOT_TEXTS: usize = 128;
/// Distinct texts of `serve_churn`: four times either cache.
pub const CHURN_TEXTS: usize = 1024;
/// Ops in one pass of `serve_churn`.
pub const CHURN_OPS: usize = 512;
/// `serve_churn` bumps the engine-state epoch after this many ops.
pub const CHURN_EPOCH_OPS: usize = 256;

/// What an op asks the system to run.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// Mini-SQL text (`run_sql`).
    Sql(String),
    /// Natural-language question (`run_nlq`).
    Nlq(String),
    /// Multi-language program (`run`).
    Hetero(HeterogeneousProgram),
}

/// One op of a workload's list.
#[derive(Debug, Clone)]
pub struct Op {
    /// The template the op was instantiated from.
    pub template: &'static str,
    /// The request.
    pub kind: OpKind,
}

impl Op {
    fn sql(template: &'static str, text: String) -> Op {
        Op {
            template,
            kind: OpKind::Sql(text),
        }
    }

    /// The op's text as the service would key it (programs render their
    /// subprogram specs).
    pub fn text(&self) -> String {
        match &self.kind {
            OpKind::Sql(text) | OpKind::Nlq(text) => text.clone(),
            OpKind::Hetero(program) => format!("{:?}", program.specs()),
        }
    }
}

/// `count` distinct values of `0..below`, in drawn order: no two ops of
/// a template share a text.
fn distinct(rng: &mut SplitMix64, below: i64, count: usize) -> Vec<i64> {
    let mut all: Vec<i64> = (0..below).collect();
    rng.shuffle(&mut all);
    all.truncate(count);
    all
}

/// The 36 ops of `olap_single` and `olap_sharded`: six templates, each
/// with [`OLAP_DRAWS`] parameter draws, template-major.
pub fn olap_ops(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x6f6c_6170);
    let mut ops = Vec::with_capacity(6 * OLAP_DRAWS);
    // A fifth of the dates (about 2 000 of 10 000 rows), sorted.
    for lo in distinct(&mut rng, DATE_SPAN - 730, OLAP_DRAWS) {
        ops.push(Op::sql(
            "range_sort",
            format!(
                "SELECT pid, age, date FROM admissions WHERE date BETWEEN {lo} AND {} ORDER BY date",
                lo + 729
            ),
        ));
    }
    // Top 10 by length of stay among a 31-year age band; `pid` breaks
    // ties, so the ten rows are the same under every shard layout.
    for lo in distinct(&mut rng, AGE_HI - 30 - AGE_LO, OLAP_DRAWS) {
        let lo = AGE_LO + lo;
        ops.push(Op::sql(
            "top_k",
            format!(
                "SELECT pid, los FROM admissions WHERE age BETWEEN {lo} AND {} ORDER BY los DESC, pid LIMIT 10",
                lo + 30
            ),
        ));
    }
    for lo in distinct(&mut rng, DATE_SPAN - 730, OLAP_DRAWS) {
        ops.push(Op::sql(
            "count",
            format!(
                "SELECT count(*) AS n FROM admissions WHERE date >= {lo} AND date < {}",
                lo + 730
            ),
        ));
    }
    // Federated: admissions (db1) joined to patients (db2) through the
    // migrator, for a 16-year age band.
    for lo in distinct(&mut rng, AGE_HI - 15 - AGE_LO, OLAP_DRAWS) {
        let lo = AGE_LO + lo;
        ops.push(Op::sql(
            "fed_join",
            format!(
                "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
                 WHERE age BETWEEN {lo} AND {}",
                lo + 15
            ),
        ));
    }
    // Half of the dates, one group per patient: many small groups.
    for lo in distinct(&mut rng, DATE_SPAN - 1825, OLAP_DRAWS) {
        ops.push(Op::sql(
            "group_pid",
            format!(
                "SELECT pid, count(*) AS n FROM admissions WHERE date >= {lo} AND date < {} GROUP BY pid",
                lo + 1825
            ),
        ));
    }
    // Nearly every row (a one-sided range), one group per age: 77 large
    // groups, which two shards aggregate partially and then merge.
    for lo in distinct(&mut rng, 100, OLAP_DRAWS) {
        ops.push(Op::sql(
            "group_age",
            format!("SELECT age, avg(los) AS m FROM admissions WHERE date >= {lo} GROUP BY age"),
        ));
    }
    ops
}

/// The four short query classes of the served workloads, instantiated
/// for a patient id (point lookups) or a start date `lo` (distinct `lo`
/// ⇒ distinct text).
fn served_text(class: usize, lo: i64) -> Op {
    match class {
        0 => Op::sql(
            "point",
            format!("SELECT pid, age, los FROM admissions WHERE pid = {lo}"),
        ),
        1 => Op::sql(
            "narrow_count",
            format!(
                "SELECT count(*) AS n FROM admissions WHERE date >= {lo} AND date < {}",
                lo + 73
            ),
        ),
        2 => Op::sql(
            "narrow_top_k",
            format!(
                "SELECT pid, los FROM admissions WHERE date >= {lo} AND date < {} \
                 ORDER BY los DESC, pid LIMIT 5",
                lo + 365
            ),
        ),
        _ => Op::sql(
            "small_join",
            format!(
                "SELECT name FROM admissions JOIN db2.patients ON admissions.pid = patients.pid \
                 WHERE date BETWEEN {lo} AND {}",
                lo + 36
            ),
        ),
    }
}

/// `per_class` distinct texts of each of the four served classes,
/// class-major. Point lookups need `per_class <= patients`.
fn served_texts(rng: &mut SplitMix64, per_class: usize, patients: i64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(4 * per_class);
    for class in 0..4 {
        let below = if class == 0 {
            patients
        } else {
            DATE_SPAN - 365
        };
        for lo in distinct(rng, below, per_class) {
            ops.push(served_text(class, lo));
        }
    }
    ops
}

/// The [`HOT_TEXTS`] texts of `serve_hot`, class-major: batch `b` holds
/// the 32 texts of class `b`, so the percentiles across batches are
/// percentiles across query classes.
pub fn serve_hot_ops(seed: u64, patients: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x686f_7400);
    served_texts(&mut rng, HOT_TEXTS / 4, patients as i64)
}

/// The [`CHURN_TEXTS`] texts of `serve_churn`, interleaved by class
/// (text `i` is of class `i % 4`), so any prefix — the hot set — holds
/// every class.
pub fn serve_churn_texts(seed: u64, patients: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x6368_7572);
    let per_class = CHURN_TEXTS / 4;
    let by_class = served_texts(&mut rng, per_class, patients as i64);
    (0..CHURN_TEXTS)
        .map(|i| by_class[(i % 4) * per_class + i / 4].clone())
        .collect()
}

/// The access pattern of `serve_churn`: [`CHURN_OPS`] indices into its
/// texts, half of them into the first [`HOT_TEXTS`]. The pattern is a
/// constant — not drawn from `--seed` — so plan and result hit, miss and
/// eviction counts are the same for every seed and only the parameters
/// inside the texts change.
pub fn serve_churn_sequence() -> Vec<u32> {
    let mut rng = SplitMix64::new(0x5eed_c0de);
    (0..CHURN_OPS)
        .map(|_| {
            if rng.next_bool(0.5) {
                rng.next_index(HOT_TEXTS) as u32
            } else {
                (HOT_TEXTS + rng.next_index(CHURN_TEXTS - HOT_TEXTS)) as u32
            }
        })
        .collect()
}

fn sql_then_ml(template: &'static str, lo: i64, width: i64, ml: &str) -> Op {
    let program = HeterogeneousProgram::builder()
        .subprogram(
            "base",
            Language::Sql,
            format!(
                "SELECT age, los, long_stay FROM admissions WHERE date >= {lo} AND date < {}",
                lo + width
            ),
            &[],
        )
        .subprogram("model", Language::MlDsl, ml, &["base"]);
    Op {
        template,
        kind: OpKind::Hetero(program),
    }
}

/// The 16 ops of `hetero_ml`: the Fig. 2 clinical pipeline, six
/// SQL(range) → MLP programs, six SQL(range) → k-means programs, and
/// the light natural-language templates.
pub fn hetero_ops(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x6865_7400);
    let mut ops = vec![Op {
        template: "nlq_clinical",
        kind: OpKind::Nlq(
            "Will patients have a long stay at the hospital or short when they exit the ICU?"
                .into(),
        ),
    }];
    for lo in distinct(&mut rng, DATE_SPAN - 1825, 6) {
        ops.push(sql_then_ml(
            "sql_mlp",
            lo,
            1825,
            "TRAIN MLP HIDDEN 16 EPOCHS 5 BATCH 64 LR 0.3 LABEL long_stay",
        ));
    }
    for lo in distinct(&mut rng, DATE_SPAN - 1825, 6) {
        ops.push(sql_then_ml("sql_kmeans", lo, 1825, "KMEANS K 4 ITERS 10"));
    }
    for question in [
        "average los by age in admissions",
        "average age by long_stay in admissions",
    ] {
        ops.push(Op {
            template: "nlq_average",
            kind: OpKind::Nlq(question.into()),
        });
    }
    ops.push(Op {
        template: "nlq_count",
        kind: OpKind::Nlq("how many rows in admissions".into()),
    });
    ops
}
