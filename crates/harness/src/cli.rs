//! The flag group the `live` and `serve` binaries share verbatim
//! (`--algo --capacity --items --keyspace --key-dist --mix --warmup-ms
//! --measure-ms --seed --sample-every --sample-interval-ms --json
//! --trace-buf`), parsed once into the fields both run configurations
//! have.

use crate::LiveConfig;
use cbtree_btree::arena::MAX_CAP;
use cbtree_btree::Protocol;
use cbtree_sync::SamplePeriod;
use cbtree_workload::cli::Flags;
use cbtree_workload::{KeyDist, OpsConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Parsed values of the shared flag group; the fields mirror
/// `LiveConfig` / `ServeConfig`.
#[derive(Debug, Clone)]
pub struct RunFlags {
    /// `--algo`.
    pub protocol: Protocol,
    /// `--capacity`.
    pub capacity: usize,
    /// `--items`.
    pub initial_items: usize,
    keyspace: u64,
    key_dist: String,
    mix: (f64, f64, f64),
    /// `--warmup-ms`.
    pub warmup: Duration,
    /// `--measure-ms`.
    pub measure: Duration,
    /// `--seed`.
    pub seed: u64,
    /// `--sample-every`.
    pub stats_sampling: SamplePeriod,
    /// `--sample-interval-ms`.
    pub sample_interval: Option<Duration>,
    /// `--json`.
    pub json: Option<PathBuf>,
    /// `--trace-buf`: switch tracing on, with rings of this many events.
    pub trace_buf: Option<usize>,
}

impl RunFlags {
    /// The defaults both binaries document — [`LiveConfig::paper`]'s —
    /// with the binary's own default `seed`.
    pub fn paper(seed: u64) -> Self {
        let d = LiveConfig::paper(Protocol::BLink, 1);
        RunFlags {
            protocol: d.protocol,
            capacity: d.capacity,
            initial_items: d.initial_items,
            keyspace: d.ops.keys.span(),
            key_dist: String::from("uniform"),
            mix: (d.ops.q_search, d.ops.q_insert, d.ops.q_delete),
            warmup: d.warmup,
            measure: d.measure,
            seed,
            stats_sampling: d.stats_sampling,
            sample_interval: None,
            json: None,
            trace_buf: None,
        }
    }

    /// Consumes `flag`'s value when `flag` belongs to the group;
    /// `Ok(false)` leaves it to the caller's own table.
    pub fn accept(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, String> {
        match flag {
            "--algo" => self.protocol = flags.value()?,
            "--capacity" => self.capacity = flags.in_range(3..=MAX_CAP)?,
            "--items" => self.initial_items = flags.value()?,
            "--keyspace" => self.keyspace = flags.value()?,
            "--key-dist" => self.key_dist = flags.value()?,
            "--mix" => self.mix = flags.mix()?,
            "--warmup-ms" => self.warmup = flags.millis(0)?,
            "--measure-ms" => self.measure = flags.millis(0)?,
            "--seed" => self.seed = flags.value()?,
            "--sample-every" => self.stats_sampling = SamplePeriod::every(flags.value()?),
            "--sample-interval-ms" => self.sample_interval = Some(flags.millis(1)?),
            "--json" => self.json = Some(flags.value()?),
            // A ring slot is 24 B: at most 384 MiB per traced thread.
            "--trace-buf" => self.trace_buf = Some(flags.in_range(2..=1 << 24)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The workload the flags describe (`--key-dist` is resolved here
    /// because it depends on `--keyspace`, which may follow it).
    pub fn ops(&self) -> Result<OpsConfig, String> {
        Ok(OpsConfig {
            q_search: self.mix.0,
            q_insert: self.mix.1,
            q_delete: self.mix.2,
            keys: KeyDist::parse_cli(&self.key_dist, self.keyspace)?,
        })
    }
}
