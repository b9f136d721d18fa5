//! The four workloads: which logs they generate, and which abstraction
//! problems they pose over them.

use gecco_bench::{applicable, constraint_dsl, ALL_SETS};
use gecco_core::{Budget, CandidateStrategy, ColGenMode, SelectionOptions};
use gecco_datagen::{production_tree, write_xes_stream, SimulationOptions};
use gecco_eventlog::EventLog;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `lean` datagen log (8 classes, length 3, 100k traces) parsed in
    /// memory under `size(g) <= 4;` on the default DFG∞ route.
    IngestLean,
    /// The same log and run, ingested through the on-disk trace store.
    StoreLean,
    /// Three Table III-shaped logs under every applicable Table IV set,
    /// exhaustive candidates with a 10k-check budget (the paper's Exh).
    PaperExh,
    /// Two dense 14-class, 200-trace logs under `size(g) <= 6;`, Step 2
    /// by column generation.
    ColgenDense14,
}

/// Input size: `Full` is the benchmark, `Reduced` keeps every route but
/// shrinks the logs so the counter tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Reduced,
}

/// A generated log: its process tree is fixed per workload, so the
/// workload seed resamples the traces but keeps the model.
#[derive(Debug, Clone, Copy)]
struct LogShape {
    name: &'static str,
    classes: usize,
    target_len: usize,
    tree_seed: u64,
    traces: usize,
}

/// How every problem of a workload is configured.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub strategy: CandidateStrategy,
    pub budget: Budget,
    pub selection: SelectionOptions,
    /// One `InstanceCache` per log, shared by all its problems.
    pub shared_cache: bool,
    /// Ingest through `ingest_to_store` instead of `xes::parse_file`.
    pub store_route: bool,
}

/// One generated input file.
#[derive(Debug, Clone)]
pub struct InputFile {
    pub path: PathBuf,
    pub traces: usize,
    pub events: usize,
    pub bytes: u64,
}

/// Traces per store batch: the batch size of the CI store smoke.
pub const STORE_BATCH_TRACES: usize = 4096;

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::IngestLean, Workload::StoreLean, Workload::PaperExh, Workload::ColgenDense14];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestLean => "ingest-lean",
            Workload::StoreLean => "store-lean",
            Workload::PaperExh => "paper-exh",
            Workload::ColgenDense14 => "colgen-dense14",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shapes(self, scale: Scale) -> Vec<LogShape> {
        let reduced = scale == Scale::Reduced;
        match self {
            // The tree seed is the datagen binary's default, so this is the
            // CI store smoke's model.
            Workload::IngestLean | Workload::StoreLean => vec![LogShape {
                name: "lean",
                classes: 8,
                target_len: 3,
                tree_seed: 7,
                traces: if reduced { 2_000 } else { 100_000 },
            }],
            // Table III rows [14], [20] and [22]: classes, traces, length.
            Workload::PaperExh => {
                [("t3-14", 11, 400, 4), ("t3-20", 8, 100, 15), ("t3-22", 4, 150, 4)]
                    .into_iter()
                    .enumerate()
                    .map(|(i, (name, classes, traces, target_len))| LogShape {
                        name,
                        classes,
                        target_len,
                        tree_seed: 0xE4A + i as u64,
                        traces: if reduced { traces / 4 } else { traces },
                    })
                    .collect()
            }
            // The column-generation trajectory, and with it the solve time,
            // varies from sample to sample (at 24 classes and 100 traces
            // from 3 s to 50 s on a 2-vCPU VM). At 14 classes it varies
            // far less, and less still the more traces a sample holds; a
            // pass sums two samples to damp the rest.
            Workload::ColgenDense14 => ["dense-a", "dense-b"]
                .into_iter()
                .map(|name| {
                    let (classes, target_len) = if reduced { (10, 10) } else { (14, 14) };
                    LogShape {
                        name,
                        classes,
                        target_len,
                        tree_seed: 0xACE + classes as u64,
                        traces: if reduced { 30 } else { 200 },
                    }
                })
                .collect(),
        }
    }

    pub fn spec(self, scale: Scale) -> RunSpec {
        let default = RunSpec {
            strategy: CandidateStrategy::DfgUnbounded,
            budget: Budget::UNLIMITED,
            selection: SelectionOptions::default(),
            shared_cache: false,
            store_route: false,
        };
        match self {
            Workload::IngestLean => default,
            Workload::StoreLean => RunSpec { store_route: true, ..default },
            // The `table5` configuration.
            Workload::PaperExh => RunSpec {
                strategy: CandidateStrategy::Exhaustive,
                budget: Budget::max_checks(if scale == Scale::Reduced { 2_000 } else { 10_000 }),
                selection: SelectionOptions { max_nodes: 2_000_000, ..Default::default() },
                shared_cache: true,
                ..default
            },
            Workload::ColgenDense14 => RunSpec {
                selection: SelectionOptions {
                    column_generation: ColGenMode::On,
                    ..Default::default()
                },
                ..default
            },
        }
    }

    /// The constraint programs posed over one input log, with a label each.
    pub fn problems(self, log: &EventLog) -> Vec<(String, String)> {
        match self {
            Workload::IngestLean | Workload::StoreLean => {
                vec![("size4".to_string(), "size(g) <= 4;".to_string())]
            }
            Workload::PaperExh => ALL_SETS
                .into_iter()
                .filter(|&set| applicable(set, log))
                .map(|set| (set.name().to_string(), constraint_dsl(set, log)))
                .collect(),
            Workload::ColgenDense14 => {
                vec![("size6".to_string(), "size(g) <= 6;".to_string())]
            }
        }
    }

    /// Writes the workload's input logs for `seed` into `dir`. The same
    /// seed always gives byte-identical files.
    pub fn generate(self, seed: u64, scale: Scale, dir: &Path) -> std::io::Result<Vec<InputFile>> {
        std::fs::create_dir_all(dir)?;
        let mut files = Vec::new();
        for (i, shape) in self.shapes(scale).into_iter().enumerate() {
            let tree = production_tree(shape.classes, shape.target_len, shape.tree_seed);
            let options = SimulationOptions {
                num_traces: shape.traces,
                // Distinct, seed-driven streams per log of the workload.
                seed: seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                log_name: format!("bench-{}", shape.name),
                ..Default::default()
            };
            let path = dir.join(format!("{}.xes", shape.name));
            // Streamed generation keeps memory bounded for the 100k-trace
            // inputs; the bytes equal those of `simulate` + `write_file`.
            let mut out = BufWriter::new(File::create(&path)?);
            let stats = write_xes_stream(&tree, &options, 10_000, &mut out)?;
            out.flush()?;
            files.push(InputFile {
                path,
                traces: stats.traces,
                events: stats.events,
                bytes: stats.bytes,
            });
        }
        Ok(files)
    }
}
