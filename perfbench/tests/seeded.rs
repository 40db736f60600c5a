//! The seed alone fixes a run's inputs: the same seed yields a
//! byte-identical instance and op stream, another seed does not.

use wdm_core::textfmt;
use wdm_perfbench::client::{parse_reply, Outcome};
use wdm_perfbench::workload::{Op, WORKLOADS};
use wdm_rwa::{Policy, RoutingMode};
use wdm_serve::EngineBackend;

/// The first `frames` frames of every connection of `name` for `seed`,
/// answered by a deterministic offline backend, as wire text.
fn op_stream(name: &str, seed: u64, frames: usize) -> String {
    let w = WORKLOADS.iter().find(|w| w.name == name).expect("workload");
    let text = w.instance_text(seed).expect("instance");
    let net = textfmt::from_text(&text).expect("instance parses");
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let mut ctx = backend.new_ctx();
    let mut wire = String::new();
    for conn in 0..w.connections {
        let mut traffic = w.traffic(seed, conn, &net);
        for _ in 0..frames {
            let op = traffic.next_op();
            let mut line = String::new();
            op.render(None, &mut line);
            wire.push_str(&line);
            if op == Op::Scrape {
                continue;
            }
            let reply = backend.execute_line(&mut ctx, &line);
            if let (Outcome::Accepted { id, .. }, _) = parse_reply(op, &reply) {
                traffic.accepted(id);
            }
        }
    }
    wire
}

#[test]
fn same_seed_same_instance_other_seed_not() {
    for w in &WORKLOADS {
        let a = w.instance_text(7).expect("instance");
        assert_eq!(a, w.instance_text(7).expect("instance"), "{}", w.name);
        assert_ne!(a, w.instance_text(8).expect("instance"), "{}", w.name);
    }
}

#[test]
fn same_seed_same_op_stream_other_seed_not() {
    for w in &WORKLOADS {
        let a = op_stream(w.name, 7, 3_000);
        assert!(a.contains("\"op\":\"fail-link\""), "{} cuts links", w.name);
        assert!(a.contains("\"op\":\"release\""), "{} releases", w.name);
        assert_eq!(a, op_stream(w.name, 7, 3_000), "{}", w.name);
        assert_ne!(a, op_stream(w.name, 8, 3_000), "{}", w.name);
    }
}
