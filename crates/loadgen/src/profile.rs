//! Workload shapes: verb mixes, world (instance) specs, and named load
//! profiles.
//!
//! A [`Mix`] weights the operations each connection draws from; a
//! [`WorldSpec`] deterministically generates the instance every session
//! opens (always with enough capacity headroom that the edit operations
//! the driver issues can never make a session infeasible); a
//! [`LoadProfile`] bundles both with the concurrency knobs.

use mcfs::Facility;
use rand::{Rng, RngCore};

/// The operations a load connection can draw (beyond the per-session
/// `OPEN` + warmup `SOLVE` issued during setup).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `EDIT` an owned session, immediately followed by a re-`SOLVE` (the
    /// pairing keeps every session's last solution current, which is what
    /// guarantees `STATS` never hits a state error under clean load).
    EditSolve,
    /// `SOLVE` a uniformly random session.
    Solve,
    /// `STATS` on an owned session.
    Stats,
    /// `SNAPSHOT` a uniformly random session.
    Snapshot,
    /// `WATCH` a random session, `SOLVE` it, then `UNWATCH` — one
    /// subscribe/stream/unsubscribe cycle.
    Watch,
}

impl OpKind {
    const ALL: [OpKind; 5] = [
        OpKind::EditSolve,
        OpKind::Solve,
        OpKind::Stats,
        OpKind::Snapshot,
        OpKind::Watch,
    ];
}

/// A weighted verb mix.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Display name (and `--mix` token).
    pub name: &'static str,
    /// Draw weights, indexed like [`OpKind::ALL`].
    pub weights: [u32; 5],
}

/// The named mixes `--mix` accepts.
pub const MIXES: [Mix; 4] = [
    Mix {
        name: "solve-heavy",
        weights: [10, 65, 10, 5, 10],
    },
    Mix {
        name: "edit-heavy",
        weights: [55, 25, 10, 5, 5],
    },
    Mix {
        name: "watch-heavy",
        weights: [10, 35, 5, 5, 45],
    },
    Mix {
        name: "mixed",
        weights: [25, 35, 15, 10, 15],
    },
];

impl Mix {
    /// Look a mix up by its `--mix` token.
    pub fn named(name: &str) -> Option<Mix> {
        MIXES.into_iter().find(|m| m.name == name)
    }

    /// Draw one operation according to the weights.
    pub fn pick(&self, rng: &mut impl RngCore) -> OpKind {
        let total: u32 = self.weights.iter().sum();
        let mut draw = rng.random_range(0..total);
        for (op, &w) in OpKind::ALL.iter().zip(self.weights.iter()) {
            if draw < w {
                return *op;
            }
            draw -= w;
        }
        OpKind::Solve
    }
}

/// Deterministic spec of the instance every session opens.
#[derive(Clone, Debug)]
pub struct WorldSpec {
    /// Approximate node count of the generated city graph.
    pub target_nodes: usize,
    /// Customers sampled onto the graph.
    pub customers: usize,
    /// Candidate facilities (stations).
    pub stations: usize,
    /// Selection budget.
    pub k: usize,
    /// Generation seed.
    pub seed: u64,
    /// The most customers the driver may add to one session beyond the
    /// base set; capacities are sized so `customers + headroom` always
    /// fits in the top-`k` stations.
    pub edit_headroom: usize,
}

impl WorldSpec {
    /// A small world for tests and the CI profile.
    pub fn small(seed: u64) -> WorldSpec {
        WorldSpec {
            target_nodes: 400,
            customers: 60,
            stations: 12,
            k: 6,
            seed,
            edit_headroom: 8,
        }
    }

    /// Render the instance as an `mcfs-instance v1` block.
    pub fn instance_text(&self) -> String {
        self.generate().text
    }

    /// Generate the world: instance text plus the facts the driver needs
    /// to build always-feasible edit scripts.
    pub fn generate(&self) -> GeneratedWorld {
        let spec = mcfs_gen::city::CitySpec {
            name: "loadgen-world",
            target_nodes: self.target_nodes,
            style: mcfs_gen::city::CityStyle::Grid,
            avg_edge_len: 90.0,
            seed: self.seed,
        };
        let g = mcfs_gen::city::generate_city(&spec);
        let customers = mcfs_gen::customers::uniform_customers(&g, self.customers, self.seed ^ 1);
        // Uniform capacities with headroom: k stations must be able to
        // absorb every base customer plus everything the driver can add.
        let capacity = ((self.customers + self.edit_headroom) * 2).div_ceil(self.k.max(1)) as u32;
        let stations: Vec<Facility> =
            mcfs_gen::bikes::generate_stations(&g, self.stations, self.seed ^ 2)
                .into_iter()
                .map(|s| Facility {
                    node: s.node,
                    capacity,
                })
                .collect();
        let inst = mcfs::McfsInstance::builder(&g)
            .customers(customers)
            .facilities(stations)
            .k(self.k)
            .build()
            .expect("generated world must be well-formed");
        let mut buf = Vec::new();
        mcfs_io::write_instance(&mut buf, &inst).expect("Vec write cannot fail");
        GeneratedWorld {
            text: String::from_utf8(buf).expect("instance text is ASCII"),
            anchor: inst.customers()[0],
            base_customers: self.customers,
        }
    }
}

/// A rendered world plus the structural facts edit scripts rely on.
#[derive(Clone, Debug)]
pub struct GeneratedWorld {
    /// The `mcfs-instance v1` block every session opens.
    pub text: String,
    /// A node guaranteed to sit in a served component — where the driver
    /// places every added customer.
    pub anchor: mcfs_graph::NodeId,
    /// Customers in the base set; added customers occupy indices
    /// `base_customers..` and are removed last-added-first.
    pub base_customers: usize,
}

/// Everything one load run needs.
#[derive(Clone, Debug)]
pub struct LoadProfile {
    /// The verb mix.
    pub mix: Mix,
    /// Concurrent client connections.
    pub connections: usize,
    /// Sessions, partitioned round-robin across connections (each session
    /// has exactly one owning connection that `OPEN`s and `EDIT`s it).
    pub sessions: usize,
    /// Operations each connection draws after setup.
    pub requests_per_connection: usize,
    /// Master seed; connection `i` derives its stream from `seed + i`.
    pub seed: u64,
    /// `buffer=` passed on `WATCH` operations.
    pub watch_buffer: usize,
    /// Prefix of generated session names (`<prefix>-0000`, ...).
    pub session_prefix: String,
    /// The instance every session opens.
    pub world: WorldSpec,
}

impl LoadProfile {
    /// A profile small enough for debug-build unit tests.
    pub fn small(seed: u64) -> LoadProfile {
        LoadProfile {
            mix: Mix::named("mixed").unwrap(),
            connections: 6,
            sessions: 10,
            requests_per_connection: 25,
            seed,
            watch_buffer: 256,
            session_prefix: "lg".into(),
            world: WorldSpec {
                target_nodes: 200,
                customers: 30,
                stations: 8,
                k: 4,
                seed: seed ^ 0x5EED,
                edit_headroom: 6,
            },
        }
    }

    /// The deterministic scaled-down profile the CI `load-suites` job runs.
    pub fn ci(seed: u64) -> LoadProfile {
        LoadProfile {
            mix: Mix::named("mixed").unwrap(),
            connections: 12,
            sessions: 48,
            requests_per_connection: 40,
            seed,
            watch_buffer: 256,
            session_prefix: "lg".into(),
            world: WorldSpec::small(seed ^ 0x5EED),
        }
    }

    /// The acceptance-scale profile: hundreds of concurrent sessions over
    /// TCP (the ISSUE-6 floor is 200).
    pub fn acceptance(seed: u64) -> LoadProfile {
        LoadProfile {
            mix: Mix::named("solve-heavy").unwrap(),
            connections: 64,
            sessions: 256,
            requests_per_connection: 50,
            seed,
            watch_buffer: 256,
            session_prefix: "lg".into(),
            world: WorldSpec::small(seed ^ 0x5EED),
        }
    }

    /// Session names, in ownership order (session `i` belongs to
    /// connection `i % connections`).
    pub fn session_names(&self) -> Vec<String> {
        (0..self.sessions)
            .map(|i| format!("{}-{i:04}", self.session_prefix))
            .collect()
    }
}
