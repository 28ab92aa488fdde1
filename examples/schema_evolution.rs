//! Schema evolution: deciding whether a schema change is backward compatible.
//!
//! A new version of a schema is *backward compatible* when every instance of
//! the old schema is still valid, i.e. `L(old) ⊆ L(new)`. A migration tool
//! rarely asks one such question: it compares every candidate revision
//! against every other (and against the deployed version), which is the
//! batch workload [`ContainmentEngine::check_matrix`] serves — one engine
//! session computes the full N×N containment matrix, building each schema's
//! shape graph and unfolded candidates once instead of once per pair.
//!
//! Run with `cargo run --example schema_evolution`.

use shapex::containment::engine::ContainmentEngine;
use shapex::containment::Containment;
use shapex::graph::write_graph;
use shapex::shex::parse_schema;

fn main() {
    let versions = [
        // The deployed schema (Figure 1's bug tracker).
        (
            "v1",
            "Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
             User -> name::Literal, email::Literal?\n\
             Employee -> name::Literal, email::Literal\n",
        ),
        // Candidate 2a: relax Employee (email becomes optional).
        (
            "v2-relaxed",
            "Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
             User -> name::Literal, email::Literal?\n\
             Employee -> name::Literal, email::Literal?\n",
        ),
        // Candidate 2b: make the user's email mandatory.
        (
            "v2-strict",
            "Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
             User -> name::Literal, email::Literal\n\
             Employee -> name::Literal, email::Literal\n",
        ),
    ];
    let names: Vec<&str> = versions.iter().map(|(n, _)| *n).collect();
    let schemas: Vec<_> = versions
        .iter()
        .map(|(name, text)| parse_schema(text).unwrap_or_else(|e| panic!("{name} parses: {e}")))
        .collect();

    // One session answers all N² questions; the engine reuses every
    // per-schema artefact across the row and the column of each version.
    let engine = ContainmentEngine::new();
    let matrix = engine.check_matrix(&schemas);

    println!("containment matrix: does every ROW instance satisfy the COLUMN schema?\n");
    print!("{:>12}", "");
    for name in &names {
        print!(" {name:>12}");
    }
    println!();
    for (i, row) in matrix.iter().enumerate() {
        print!("{:>12}", names[i]);
        for cell in row {
            let mark = match cell {
                Containment::Contained => "yes",
                Containment::NotContained(_) => "NO",
                Containment::Unknown(_) => "?",
            };
            print!(" {mark:>12}");
        }
        println!();
    }

    // An upgrade v1 -> vX is backward compatible iff matrix[v1][vX] holds;
    // the reverse cell tells us whether the upgrade also *widens* the
    // language (admits genuinely new instances) or is an equivalence.
    println!("\nupgrade analysis (old = {}):", names[0]);
    for j in 1..names.len() {
        println!("=== upgrade {} -> {} ===", names[0], names[j]);
        match &matrix[0][j] {
            Containment::Contained => {
                println!(
                    "backward compatible: every v1 instance satisfies {}",
                    names[j]
                );
            }
            Containment::NotContained(witness) => {
                println!("NOT backward compatible; witness instance:");
                print!("{}", write_graph(witness));
            }
            Containment::Unknown(reason) => println!("undecided: {reason}"),
        }
        match &matrix[j][0] {
            Containment::Contained => {
                println!(
                    "...and {} ⊆ v1: the upgrade narrows or preserves the language\n",
                    names[j]
                )
            }
            Containment::NotContained(_) => {
                println!(
                    "...and {} ⊄ v1: the upgrade admits genuinely new instances\n",
                    names[j]
                )
            }
            Containment::Unknown(reason) => println!("...reverse direction undecided: {reason}\n"),
        }
    }

    println!("session stats: {}", engine.stats());
}
