//! Quickstart: download one file three ways and compare energy.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This is the 30-second tour of the library: build a scenario (an
//! environment: link capacities, RTTs, a workload, a device energy
//! profile), run it under three transport strategies — standard MPTCP,
//! eMPTCP, and single-path TCP over WiFi — and print what the energy meter
//! and the clock saw.

use emptcp_repro::expr::scenario::{Scenario, Workload};
use emptcp_repro::expr::{host, Strategy};

fn main() {
    // A 16 MB download over good WiFi (11 Mbps) with LTE available.
    let scenario = || Scenario::static_good_wifi().with(Workload::Download { size: 16 << 20 });

    println!("16 MB download, WiFi 11 Mbps + LTE 12 Mbps (Samsung Galaxy S3 energy model)\n");
    println!(
        "{:<16} {:>10} {:>10} {:>9} {:>9} {:>11}",
        "strategy", "energy (J)", "time (s)", "wifi MB", "LTE MB", "promotions"
    );
    for strategy in [
        Strategy::Mptcp,
        Strategy::emptcp_default(),
        Strategy::TcpWifi,
    ] {
        let r = host::run(scenario(), strategy, 42);
        assert!(r.completed, "{} did not finish", r.strategy);
        println!(
            "{:<16} {:>10.1} {:>10.1} {:>9.1} {:>9.1} {:>11}",
            r.strategy,
            r.energy_j,
            r.download_time_s,
            r.wifi_bytes as f64 / (1 << 20) as f64,
            r.cell_bytes as f64 / (1 << 20) as f64,
            r.promotions,
        );
    }

    println!(
        "\neMPTCP matches TCP-over-WiFi here: with WiFi this good, waking the LTE \
         radio would only buy speed at a steep per-byte energy cost, so the \
         delayed-establishment rules (kappa = 1 MB, tau = 3 s, EIB check) never \
         fire. Standard MPTCP pays the LTE promotion and tail for its speedup."
    );
}
