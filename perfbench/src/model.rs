//! Benchmark inputs: the generated 1222-device campus, the USI case
//! study, and the seeded random stream every workload draws from.

use std::sync::Arc;

use netgen::campus::{campus_infrastructure, CampusParams};
use upsim_core::infrastructure::Infrastructure;
use upsim_core::service::CompositeService;
use upsim_server::{pingpong_mapper, ModelSnapshot, PerspectiveMapper};

/// The 1222-device campus of the discovery benchmark: 2 cores, 64
/// distribution switches, 2 edge switches each, 8 clients per edge,
/// 3 servers.
pub const CAMPUS: CampusParams = CampusParams {
    core: 2,
    distributions: 64,
    edges_per_distribution: 2,
    clients_per_edge: 8,
    servers: 3,
    dual_homed_edges: false,
};

/// Atomic steps of the campus service (Table-I-shaped request/response).
const FETCH_STEPS: [&str; 5] = ["request", "authorize", "deliver", "acknowledge", "log"];

/// The campus as the files `upsim serve -i/-s` reads.
pub struct CampusFiles {
    pub infra_xml: String,
    pub service_xml: String,
}

impl CampusFiles {
    pub fn generate() -> CampusFiles {
        let service = CompositeService::sequential("fetch", &FETCH_STEPS).expect("static service");
        CampusFiles {
            infra_xml: campus_infrastructure(CAMPUS).to_xml(),
            service_xml: service.to_xml(),
        }
    }

    /// The epoch-0 snapshot the server builds from these files, parsed
    /// from the same bytes so the in-process reference is exact.
    pub fn snapshot(&self) -> Result<ModelSnapshot, String> {
        let infra = Infrastructure::from_xml(&self.infra_xml).map_err(|e| e.to_string())?;
        let service = CompositeService::from_xml(&self.service_xml).map_err(|e| e.to_string())?;
        ModelSnapshot::new(infra, service).map_err(|e| e.to_string())
    }

    /// `-i`/`-s` servers use the ping-pong mapper.
    pub fn mapper() -> PerspectiveMapper {
        pingpong_mapper()
    }
}

/// Campus client `t<d>_<e>_<c>` and its access switch `edge<d>_<e>`.
pub fn campus_clients() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for d in 0..CAMPUS.distributions {
        for e in 0..CAMPUS.edges_per_distribution {
            for c in 0..CAMPUS.clients_per_edge {
                out.push((format!("t{d}_{e}_{c}"), format!("edge{d}_{e}")));
            }
        }
    }
    out
}

pub fn campus_servers() -> Vec<String> {
    (0..CAMPUS.servers).map(|s| format!("srv{s}")).collect()
}

/// The USI case study as `upsim serve --case-study` loads it.
pub fn case_study() -> (ModelSnapshot, PerspectiveMapper) {
    let snapshot = ModelSnapshot::new(
        netgen::usi::usi_infrastructure(),
        netgen::usi::printing_service(),
    )
    .expect("USI models are consistent");
    let mapper: PerspectiveMapper =
        Arc::new(|_: &CompositeService, client: &str, printer: &str| {
            netgen::usi::perspective_mapping(client, printer)
        });
    (snapshot, mapper)
}

/// The 45 printing perspectives (15 clients × 3 printers).
pub fn case_study_pairs() -> Vec<(String, String)> {
    netgen::usi::all_printing_perspectives()
        .into_iter()
        .map(|(client, printer, _)| (client, printer))
        .collect()
}

/// SplitMix64: a seeded, platform-independent stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a label, independent of others.
    pub fn derived(seed: u64, label: u64) -> Rng {
        let mut rng = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_has_the_named_shape() {
        assert_eq!(CAMPUS.device_count(), 1222);
        assert_eq!(campus_clients().len(), 1024);
        let files = CampusFiles::generate();
        let snapshot = files.snapshot().expect("generated campus parses");
        assert_eq!(snapshot.infrastructure.device_count(), 1222);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::derived(7, 1), |r, _| Some(r.next()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::derived(7, 1), |r, _| Some(r.next()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::derived(8, 1), |r, _| Some(r.next()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
