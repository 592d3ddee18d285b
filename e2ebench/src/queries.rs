//! The paper's §6 query classes: SQL generated from the workload seed,
//! and the answer each must produce, computed from the generated rows.

use crate::sky::{Sky, DECL_LIMIT};
use qserv::{ResultTable, Value};

/// Radius of the SHV1 near-neighbour predicate, degrees.
pub const SHV1_RADIUS_DEG: f64 = 0.02;
/// Side of the SHV1 areaspec box, degrees.
pub const SHV1_BOX_DEG: f64 = 10.0;

/// One of the paper's query classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Object by objectId.
    Lv1,
    /// Source time series of one object.
    Lv2,
    /// 1°×1° box with colour cuts, counted.
    Lv3,
    /// Full-sky `COUNT(*)`.
    Hv1,
    /// Full-sky colour filter returning rows (streamed).
    Hv2,
    /// Density per chunk: `GROUP BY chunkId` with AVGs.
    Hv3,
    /// Near-neighbour pair count over a 10°×10° box.
    Shv1,
}

impl Class {
    /// The paper's name for the class.
    pub fn name(self) -> &'static str {
        match self {
            Class::Lv1 => "LV1",
            Class::Lv2 => "LV2",
            Class::Lv3 => "LV3",
            Class::Hv1 => "HV1",
            Class::Hv2 => "HV2",
            Class::Hv3 => "HV3",
            Class::Shv1 => "SHV1",
        }
    }

    /// The class with the paper's name `name`.
    pub fn from_name(name: &str) -> Option<Class> {
        [
            Class::Lv1,
            Class::Lv2,
            Class::Lv3,
            Class::Hv1,
            Class::Hv2,
            Class::Hv3,
            Class::Shv1,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }

    /// Whether every chunk holds rows this query reads (HV1–3), so
    /// its rows-covered count is the whole Object table.
    pub fn full_sky(self) -> bool {
        matches!(self, Class::Hv1 | Class::Hv2 | Class::Hv3)
    }
}

/// What a correct answer looks like: the row count, and the sum of the
/// first column when that column is an integer the oracle can predict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Result rows.
    pub rows: u64,
    /// Wrapping sum of the first column (objectId or a count).
    pub col0_sum: Option<i64>,
}

/// What came back, reduced to what [`Expect`] can check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Result rows.
    pub rows: u64,
    /// Wrapping sum of the integer values of the first column.
    pub col0_sum: i64,
}

impl Summary {
    /// Folds one batch of rows in.
    pub fn add_rows(&mut self, rows: &[Vec<Value>]) {
        self.rows += rows.len() as u64;
        for r in rows {
            if let Some(Value::Int(v)) = r.first() {
                self.col0_sum = self.col0_sum.wrapping_add(*v);
            }
        }
    }

    /// Summarizes a whole table.
    pub fn of(table: &ResultTable) -> Summary {
        let mut s = Summary::default();
        s.add_rows(&table.rows);
        s
    }
}

impl Expect {
    /// `Ok` when `got` matches, otherwise a description of the mismatch.
    pub fn check(&self, got: &Summary) -> Result<(), String> {
        if got.rows != self.rows {
            return Err(format!("expected {} rows, got {}", self.rows, got.rows));
        }
        if let Some(sum) = self.col0_sum {
            if got.col0_sum != sum {
                return Err(format!(
                    "expected first-column sum {sum}, got {}",
                    got.col0_sum
                ));
            }
        }
        Ok(())
    }
}

/// One generated query with its expected answer.
#[derive(Clone, Debug)]
pub struct Query {
    /// Its class.
    pub class: Class,
    /// The SQL the proxy receives.
    pub sql: String,
    /// The correct answer.
    pub expect: Expect,
}

/// `x` rounded to hundredths, exactly as a `{:.2}` SQL literal parses.
fn round2(x: f64) -> f64 {
    format!("{x:.2}").parse().expect("formatted float parses")
}

/// A deterministic generator (splitmix64): the workload seed is the
/// only source of query parameters.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`, rounded to hundredths so the SQL literal
    /// and the oracle's bound are the same `f64`.
    pub fn coord(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        round2(lo + u * (hi - lo))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Builds queries of any class against one sky.
pub struct QueryGen<'a> {
    sky: &'a Sky,
    rng: Rng,
}

impl<'a> QueryGen<'a> {
    /// A generator over `sky` drawing parameters from `rng`.
    pub fn new(sky: &'a Sky, rng: Rng) -> QueryGen<'a> {
        QueryGen { sky, rng }
    }

    fn object_id(&mut self) -> i64 {
        self.rng.below(self.sky.objects() as u64) as i64 + 1
    }

    /// A fresh query of `class`.
    pub fn make(&mut self, class: Class) -> Query {
        let sky = self.sky;
        let (sql, expect) = match class {
            Class::Lv1 => {
                let id = self.object_id();
                (
                    format!("SELECT * FROM Object WHERE objectId = {id}"),
                    Expect {
                        rows: 1,
                        col0_sum: Some(id),
                    },
                )
            }
            Class::Lv2 => {
                let id = self.object_id();
                (
                    format!(
                        "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), \
                         ra, decl FROM Source WHERE objectId = {id}"
                    ),
                    Expect {
                        rows: sky.sources_of(id),
                        col0_sum: None,
                    },
                )
            }
            Class::Lv3 => {
                let ra = self.rng.coord(0.0, 359.0);
                let decl = self.rng.coord(-DECL_LIMIT + 1.0, DECL_LIMIT - 2.0);
                let (ra_hi, decl_hi) = (round2(ra + 1.0), round2(decl + 1.0));
                (
                    format!(
                        "SELECT COUNT(*) FROM Object \
                         WHERE ra_PS BETWEEN {ra:.2} AND {ra_hi:.2} \
                         AND decl_PS BETWEEN {decl:.2} AND {decl_hi:.2} \
                         AND fluxToAbMag(zFlux_PS) BETWEEN 18 AND 25 \
                         AND fluxToAbMag(gFlux_PS)-fluxToAbMag(rFlux_PS) BETWEEN -0.5 AND 0.5"
                    ),
                    Expect {
                        rows: 1,
                        col0_sum: Some(sky.lv3_count(ra, ra_hi, decl, decl_hi)),
                    },
                )
            }
            Class::Hv1 => (
                "SELECT COUNT(*) FROM Object".to_string(),
                Expect {
                    rows: 1,
                    col0_sum: Some(sky.objects() as i64),
                },
            ),
            Class::Hv2 => {
                let (rows, id_sum) = sky.hv2();
                (
                    "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, \
                     zFlux_PS, yFlux_PS FROM Object \
                     WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.4"
                        .to_string(),
                    Expect {
                        rows,
                        col0_sum: Some(id_sum),
                    },
                )
            }
            Class::Hv3 => (
                "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId \
                 FROM Object GROUP BY chunkId"
                    .to_string(),
                Expect {
                    rows: sky.populated_chunks() as u64,
                    col0_sum: Some(sky.objects() as i64),
                },
            ),
            Class::Shv1 => {
                let ra = self.rng.coord(0.0, 360.0 - SHV1_BOX_DEG);
                let decl = self.rng.coord(-70.0, 70.0 - SHV1_BOX_DEG);
                let b = [
                    ra,
                    decl,
                    round2(ra + SHV1_BOX_DEG),
                    round2(decl + SHV1_BOX_DEG),
                ];
                (
                    format!(
                        "SELECT count(*) FROM Object o1, Object o2 \
                         WHERE qserv_areaspec_box({:.2}, {:.2}, {:.2}, {:.2}) \
                         AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {}",
                        b[0], b[1], b[2], b[3], SHV1_RADIUS_DEG
                    ),
                    Expect {
                        rows: 1,
                        col0_sum: Some(sky.near_pairs(b, SHV1_RADIUS_DEG)),
                    },
                )
            }
        };
        Query { class, sql, expect }
    }

    /// `rounds` rounds of `classes`, each round in a seeded order: equal
    /// shares of every class, mixed unpredictably.
    pub fn mix(&mut self, classes: &[Class], rounds: usize) -> Vec<Query> {
        let mut out = Vec::with_capacity(classes.len() * rounds);
        for _ in 0..rounds {
            let mut round = classes.to_vec();
            self.rng.shuffle(&mut round);
            out.extend(round.into_iter().map(|c| self.make(c)));
        }
        out
    }
}
