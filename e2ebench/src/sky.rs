//! The two benchmark skies and the oracle that answers every query
//! class from the generated rows, independently of the system under test.

use qserv::Chunker;
use qserv_datagen::generate::{CatalogConfig, ObjectRow, Patch};
use qserv_engine::functions::flux_to_ab_mag as mag;
use qserv_sphgeom::{angular_separation_deg, Angle, LonLat, Region, SphericalBox};
use std::collections::{HashMap, HashSet};

/// Overlap margin of both partitionings, degrees.
pub const OVERLAP_DEG: f64 = 0.05;
/// Declination limit of the footprint (the sky is `|decl| <= 80°`).
pub const DECL_LIMIT: f64 = 80.0;
/// Mean Source rows per Object.
pub const SOURCES_PER_OBJECT: f64 = 5.0;

/// A dataset: catalog size and partitioning.
#[derive(Clone, Copy, Debug)]
pub struct SkySpec {
    /// Name used in reports.
    pub name: &'static str,
    /// Objects to generate.
    pub objects: usize,
    /// Declination stripes of the chunker.
    pub stripes: usize,
    /// Sub-stripes per stripe.
    pub substripes: usize,
}

/// Paper-like chunk density: thousands of small chunks.
pub const FINE: SkySpec = SkySpec {
    name: "fine",
    objects: 100_000,
    stripes: 50,
    substripes: 8,
};

/// Few large chunks, so per-row work dominates.
pub const COARSE: SkySpec = SkySpec {
    name: "coarse",
    objects: 200_000,
    stripes: 18,
    substripes: 10,
};

impl SkySpec {
    /// The chunker the cluster is partitioned with.
    pub fn chunker(&self) -> Chunker {
        Chunker::new(
            self.stripes,
            self.substripes,
            Angle::from_degrees(OVERLAP_DEG),
        )
        .expect("benchmark partitioning is valid")
    }
}

/// The generated catalog plus the indexes the oracle answers from.
pub struct Sky {
    /// The dataset it was generated for.
    pub spec: SkySpec,
    /// The generated rows.
    pub patch: Patch,
    /// Source rows per objectId (index `objectId - 1`).
    sources_per_object: Vec<u32>,
    /// Object indexes bucketed by 1°×1° cell.
    grid: HashMap<(i32, i32), Vec<u32>>,
    /// Chunks holding at least one owned Object row.
    populated_chunks: usize,
    /// Objects passing the HV2 colour cut, and the sum of their ids.
    hv2: (u64, i64),
}

fn cell(ra: f64, decl: f64) -> (i32, i32) {
    ((ra.floor() as i32).rem_euclid(360), decl.floor() as i32)
}

/// The HV2 predicate: `fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.4`.
fn hv2_selects(o: &ObjectRow) -> bool {
    match (mag(o.flux_ps[3]), mag(o.flux_ps[4])) {
        (Some(i), Some(z)) => i - z > 0.4,
        _ => false,
    }
}

/// The LV3 colour cuts.
fn lv3_colour(o: &ObjectRow) -> bool {
    let z = mag(o.flux_ps[4]);
    let gr = match (mag(o.flux_ps[1]), mag(o.flux_ps[2])) {
        (Some(g), Some(r)) => Some(g - r),
        _ => None,
    };
    matches!(z, Some(z) if (18.0..=25.0).contains(&z))
        && matches!(gr, Some(c) if (-0.5..=0.5).contains(&c))
}

impl Sky {
    /// Generates the catalog for `spec` from `seed` and builds the
    /// oracle's indexes.
    pub fn generate(spec: SkySpec, seed: u64) -> Sky {
        let patch = Patch::generate(&CatalogConfig {
            objects: spec.objects,
            mean_sources_per_object: SOURCES_PER_OBJECT,
            seed,
            footprint: SphericalBox::from_degrees(0.0, -DECL_LIMIT, 360.0, DECL_LIMIT),
        });
        let mut sources_per_object = vec![0u32; patch.objects.len()];
        for s in &patch.sources {
            sources_per_object[(s.object_id - 1) as usize] += 1;
        }
        let mut grid: HashMap<(i32, i32), Vec<u32>> = HashMap::new();
        let chunker = spec.chunker();
        let mut chunks = HashSet::new();
        let mut hv2 = (0u64, 0i64);
        for (i, o) in patch.objects.iter().enumerate() {
            assert_eq!(o.object_id, i as i64 + 1, "objectIds are dense from 1");
            grid.entry(cell(o.ra_ps, o.decl_ps))
                .or_default()
                .push(i as u32);
            chunks.insert(
                chunker
                    .locate(&LonLat::from_degrees(o.ra_ps, o.decl_ps))
                    .chunk_id,
            );
            if hv2_selects(o) {
                hv2.0 += 1;
                hv2.1 = hv2.1.wrapping_add(o.object_id);
            }
        }
        Sky {
            spec,
            patch,
            sources_per_object,
            grid,
            populated_chunks: chunks.len(),
            hv2,
        }
    }

    /// Object rows.
    pub fn objects(&self) -> usize {
        self.patch.objects.len()
    }

    /// Object plus Source rows.
    pub fn rows(&self) -> usize {
        self.patch.objects.len() + self.patch.sources.len()
    }

    /// Source rows generated for `object_id`.
    pub fn sources_of(&self, object_id: i64) -> u64 {
        self.sources_per_object[(object_id - 1) as usize] as u64
    }

    /// Chunks holding at least one Object.
    pub fn populated_chunks(&self) -> usize {
        self.populated_chunks
    }

    /// HV2's expected row count and objectId sum.
    pub fn hv2(&self) -> (u64, i64) {
        self.hv2
    }

    /// Objects in cells overlapping `[ra_lo, ra_hi] × [decl_lo, decl_hi]`
    /// (no RA wrap: callers keep boxes inside `[0, 360)`).
    fn candidates(&self, ra_lo: f64, ra_hi: f64, decl_lo: f64, decl_hi: f64) -> Vec<&ObjectRow> {
        let mut out = Vec::new();
        for ra in (ra_lo.floor() as i32)..=(ra_hi.floor() as i32) {
            for decl in (decl_lo.floor() as i32)..=(decl_hi.floor() as i32) {
                if let Some(ids) = self.grid.get(&(ra.rem_euclid(360), decl)) {
                    out.extend(ids.iter().map(|&i| &self.patch.objects[i as usize]));
                }
            }
        }
        out
    }

    /// LV3: objects inside the RA/decl BETWEEN box passing the colour cuts.
    pub fn lv3_count(&self, ra_lo: f64, ra_hi: f64, decl_lo: f64, decl_hi: f64) -> i64 {
        self.candidates(ra_lo, ra_hi, decl_lo, decl_hi)
            .into_iter()
            .filter(|o| {
                (ra_lo..=ra_hi).contains(&o.ra_ps)
                    && (decl_lo..=decl_hi).contains(&o.decl_ps)
                    && lv3_colour(o)
            })
            .count() as i64
    }

    /// SHV1: ordered pairs `(o1, o2)` with `o1` inside the areaspec box
    /// and `o2` anywhere within `radius` degrees (self-pairs included).
    pub fn near_pairs(&self, b: [f64; 4], radius: f64) -> i64 {
        let region = SphericalBox::from_degrees(b[0], b[1], b[2], b[3]);
        let mut pairs = 0i64;
        for a in self.candidates(b[0], b[2], b[1], b[3]) {
            if !region.contains(&LonLat::from_degrees(a.ra_ps, a.decl_ps)) {
                continue;
            }
            for dra in -1..=1 {
                for ddecl in -1..=1 {
                    let (cra, cdecl) = cell(a.ra_ps, a.decl_ps);
                    let key = ((cra + dra).rem_euclid(360), cdecl + ddecl);
                    for &i in self.grid.get(&key).map(Vec::as_slice).unwrap_or(&[]) {
                        let o = &self.patch.objects[i as usize];
                        if angular_separation_deg(a.ra_ps, a.decl_ps, o.ra_ps, o.decl_ps) < radius {
                            pairs += 1;
                        }
                    }
                }
            }
        }
        pairs
    }
}
