//! `exhibits_quick`: regenerate every paper exhibit at quick scale, one
//! job at a time — what a researcher waits for.
//!
//! Three quarters of a pass is the 250-second mobility walk (`sec46`,
//! `fig13`, `fig12`) through `expr::host::Simulation`, so `tcp`, `mptcp`,
//! `core`, `phy` and `energy` do the work; `net`, `live` and `obsv` do
//! almost none.

use crate::measure::{self, Fnv};
use crate::spans::Tracer;
use crate::workload::{Pass, Scale, Workload};
use emptcp_expr::figures::Config;
use emptcp_expr::repro::{self, ExhibitReport, ReproOptions};
use emptcp_expr::runner::Runner;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Set-up regenerates these before the first measured pass: the six
/// closed-form tables and three short simulations, enough to fault the
/// code in and build whatever the exhibit engine builds lazily.
const WARM_UP_IDS: [&str; 9] = [
    "table1", "fig1", "table2", "fig3", "fig4", "eq1", "fig7", "fig9", "fig15",
];

/// The exhibits the layer ledger names; everything else is `other`.
const NAMED_JOBS: [&str; 5] = ["sec46", "fig13", "fig12", "handover", "streaming"];

pub struct Exhibits {
    ids: Vec<String>,
    opts: ReproOptions,
}

fn run(ids: &[String], opts: &ReproOptions) -> io::Result<Vec<ExhibitReport>> {
    Runner::serial().install(|| repro::run_exhibits(ids, opts))
}

impl Exhibits {
    pub fn prepare(seed: u64, scale: Scale, scratch: &Path) -> io::Result<Exhibits> {
        let out_dir = scratch.join("exhibits");
        if out_dir.exists() {
            std::fs::remove_dir_all(&out_dir)?;
        }
        std::fs::create_dir_all(&out_dir)?;
        let mut cfg = Config::quick();
        cfg.seed = seed;
        if scale == Scale::Smoke {
            // The mobility walk's length is fixed by its scenario; halving
            // the repetitions is the only size the exhibits expose.
            cfg.runs = 1;
            cfg.bulk_size /= 4;
            cfg.large_size /= 4;
        }
        let opts = ReproOptions {
            cfg,
            out_dir,
            trace: false,
            trace_path: None,
        };
        let warm_up: Vec<String> = WARM_UP_IDS.iter().map(|s| s.to_string()).collect();
        run(&warm_up, &opts)?;
        Ok(Exhibits {
            ids: repro::IDS.iter().map(|s| s.to_string()).collect(),
            opts,
        })
    }

    /// Hash of every `<id>.json` the pass wrote, in name order.
    fn digest(&self) -> io::Result<u64> {
        let mut names: Vec<_> = std::fs::read_dir(&self.opts.out_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        names.sort();
        let mut hash = Fnv::new();
        for path in names {
            hash.write(path.file_name().unwrap_or_default().as_encoded_bytes());
            hash.write(&std::fs::read(&path)?);
        }
        Ok(hash.finish())
    }
}

fn counter(reports: &[ExhibitReport], pick: impl Fn(&str) -> bool) -> u64 {
    reports
        .iter()
        .flat_map(|r| &r.metrics)
        .filter(|(name, _)| pick(name))
        .map(|(_, v)| v)
        .sum()
}

impl Workload for Exhibits {
    fn clients(&self) -> u64 {
        // Jobs are serial and each host simulation drives one device.
        1
    }

    fn pass(&mut self, tracer: Option<&mut Tracer>) -> Pass {
        let cpu0 = measure::process_cpu_s();
        let start = Instant::now();
        let outcome = run(&self.ids, &self.opts);
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = measure::process_cpu_s() - cpu0;
        let mut pass = Pass {
            wall_s,
            cpu_s,
            ..Pass::default()
        };
        let reports = match outcome {
            Ok(reports) => reports,
            Err(e) => {
                pass.attempted = 1;
                pass.failures.push(format!("exhibit run failed: {e}"));
                return pass;
            }
        };
        pass.attempted = reports.len() as u64;
        for r in &reports {
            if !r.violations.is_empty() {
                pass.failures.push(format!(
                    "{}: {} invariant violations, first: {}",
                    r.ids.join("+"),
                    r.violations.len(),
                    r.violations[0]
                ));
            }
        }
        match self.digest() {
            Ok(d) => pass.digest = d,
            Err(e) => pass.failures.push(format!("outputs unreadable: {e}")),
        }
        let wire_bytes = counter(&reports, |n| {
            n.starts_with("iface.") && n.ends_with(".rx_bytes")
        });

        let mut other_s = 0.0;
        for r in &reports {
            let job = r.ids.join("+");
            if NAMED_JOBS.contains(&job.as_str()) {
                pass.layers
                    .insert(format!("expr.exhibit.{job}_s"), r.wall_s);
            } else {
                other_s += r.wall_s;
            }
        }
        pass.layers.insert("expr.exhibit.other_s".into(), other_s);
        pass.layers
            .insert("expr.sim_wire_bytes".into(), wire_bytes as f64);
        for (layer, source) in [
            ("tcp.retransmits", "tcp.retransmits"),
            ("tcp.rto", "tcp.rto"),
            ("core.usage_switches", "controller.switches"),
            ("core.promotions", "rrc.promotions"),
        ] {
            pass.layers
                .insert(layer.into(), counter(&reports, |n| n == source) as f64);
        }
        if let Some(tracer) = tracer {
            // The jobs time themselves; serial jobs run back to back.
            for r in &reports {
                tracer.child_of_duration(&format!("exhibit.{}", r.ids.join("+")), r.wall_s);
            }
        }
        pass
    }
}
