//! Validate an edge-list "RDF" document against a ShEx schema provided as
//! text, reporting the maximal typing and the offending nodes.
//!
//! Run with `cargo run --example rdf_validation`. Pass two file paths to
//! validate your own data: `cargo run --example rdf_validation -- graph.txt
//! schema.shex`.

use std::env;
use std::fs;
use std::process::ExitCode;

use shapex::graph::parse_graph;
use shapex::shex::parse_schema;
use shapex::shex::typing::maximal_typing;

const DEFAULT_GRAPH: &str = "\
# A small social feed
post1 -author-> alice
post1 -body-> lit1
post1 -tag-> tag_rust
post1 -tag-> tag_rdf
post2 -author-> bob
post2 -body-> lit2
post2 -inReplyTo-> post1
alice -name-> lit3
bob -name-> lit4
bob -homepage-> lit5
tag_rust -label-> lit6
tag_rdf -label-> lit7
# post3 is missing its author on purpose
post3 -body-> lit8
";

const DEFAULT_SCHEMA: &str = "\
Post -> author::Person, body::Literal, tag::Tag*, inReplyTo::Post?
Person -> name::Literal, homepage::Literal?
Tag -> label::Literal
Literal -> EMPTY
";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().collect();
    let (graph_text, schema_text) = if args.len() >= 3 {
        let graph = fs::read_to_string(&args[1]).expect("cannot read the graph file");
        let schema = fs::read_to_string(&args[2]).expect("cannot read the schema file");
        (graph, schema)
    } else {
        (DEFAULT_GRAPH.to_owned(), DEFAULT_SCHEMA.to_owned())
    };

    let graph = match parse_graph(&graph_text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("graph parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let schema = match parse_schema(&schema_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("schema parse error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("schema class: {}", schema.classify());
    let typing = maximal_typing(&graph, &schema);
    println!("\nnode types:");
    for node in graph.nodes() {
        let types: Vec<&str> = typing
            .types_of(node)
            .iter()
            .map(|t| schema.type_name(t))
            .collect();
        let rendered = if types.is_empty() {
            "<none>".to_owned()
        } else {
            types.join(", ")
        };
        println!("  {:12} : {}", graph.node_name(node), rendered);
    }

    let untyped = typing.untyped_nodes();
    if untyped.is_empty() {
        println!("\nthe graph satisfies the schema");
        ExitCode::SUCCESS
    } else {
        println!("\nthe graph violates the schema; untypable nodes:");
        for node in untyped {
            println!("  {}", graph.node_name(node));
        }
        ExitCode::FAILURE
    }
}
