//! Quickstart: the Figure 1 bug tracker end to end.
//!
//! * parse the ShEx schema and an RDF-like graph,
//! * validate the graph (maximal typing),
//! * view the schema as a shape graph and compute an embedding,
//! * check containment against the refactored schema from the paper's
//!   introduction.
//!
//! Run with `cargo run --example quickstart`.

use shapex::containment::embedding::embeds;
use shapex::containment::shex0::{shex0_containment, Shex0Options};
use shapex::gadgets::figures;
use shapex::shex::typing::maximal_typing;

fn main() {
    // 1. The Figure 1 schema and instance.
    let schema = figures::bug_tracker_schema();
    let graph = figures::bug_tracker_graph();
    println!("=== Schema (Figure 1) ===\n{schema}");
    println!("=== Instance ===\n{graph}");

    // 2. Validation: compute the maximal typing and print it.
    let typing = maximal_typing(&graph, &schema);
    println!("=== Maximal typing ===");
    for node in graph.nodes() {
        let types: Vec<&str> = typing
            .types_of(node)
            .iter()
            .map(|t| schema.type_name(*t))
            .collect();
        println!("  {:10} : {}", graph.node_name(node), types.join(", "));
    }
    println!(
        "graph {} the schema\n",
        if typing.is_total() {
            "satisfies"
        } else {
            "violates"
        }
    );

    // 3. Embeddings: the instance embeds into the schema's shape graph.
    let shape = schema.to_shape_graph().expect("Figure 1 is an RBE0 schema");
    match embeds(&graph, &shape) {
        Some(embedding) => {
            let emp1 = graph.find_node("emp1").expect("emp1 exists");
            let images: Vec<&str> = embedding
                .images_of(emp1)
                .iter()
                .map(|m| shape.node_name(*m))
                .collect();
            println!(
                "emp1 is simulated by the shape graph nodes: {}",
                images.join(", ")
            );
        }
        None => println!("no embedding (unexpected for a valid instance)"),
    }

    // 4. Containment against the refactored schema of the introduction.
    let split = figures::bug_tracker_split_schema();
    let options = Shex0Options::default();
    println!("\n=== Containment checks ===");
    println!(
        "split ⊆ original : {}",
        shex0_containment(&split, &schema, &options)
    );
    println!(
        "original ⊆ split : {} (no embedding exists; the equivalence needs the union\n\
         of User1 and User2, which the type-set fixpoint proves)",
        shex0_containment(&schema, &split, &options)
    );
}
