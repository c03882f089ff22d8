//! The paper's Fig. 1 enterprise scenario: a recommendation application
//! spanning an RDBMS (customers, transactions) and a timeseries store
//! (clickstreams).
//!
//! ```text
//! cargo run --example recommendation
//! ```

use polystorepp::prelude::*;

fn main() -> Result<()> {
    let deployment = datagen::recommendation(&RecommendationConfig {
        customers: 800,
        clicks_per_customer: 16,
        seed: 7,
    });
    let system = Polystore::from_deployment(deployment)
        .accelerators(AcceleratorFleet::workstation())
        .opt_level(OptLevel::L2)
        .build()?;

    // Spending summary per segment (runs natively in the RDBMS).
    let report = system.run_sql(
        "SELECT segment, count(*) AS n, avg(spend) AS avg_spend \
         FROM customers GROUP BY segment ORDER BY segment",
    )?;
    println!("customer segments:");
    for row in report.execution.outputs[0].try_rows()? {
        println!("  {row}");
    }

    // Cross-engine: high-value transactions joined back to customers.
    let report = system.run_sql(
        "SELECT segment, count(*) AS big_tx \
         FROM transactions JOIN rdbms.customers ON transactions.cid = customers.cid \
         WHERE amount >= 400 GROUP BY segment",
    )?;
    println!("\nhigh-value transactions by segment:");
    for row in report.execution.outputs[0].try_rows()? {
        println!("  {row}");
    }
    println!(
        "\nsimulated makespan: {:.3} ms; events ledgered: {}",
        report.makespan() * 1e3,
        report.costs.events
    );
    Ok(())
}
