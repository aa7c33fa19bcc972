//! Pipelined, streamed traffic against the scheduling service: tag
//! requests with ids, watch a fast request overtake a slow one, and
//! consume a `batch` as a stream of per-block frames ahead of its
//! summary.
//!
//! ```console
//! $ cargo run --release --example service_stream               # in-process server
//! $ cargo run --release --example service_stream 127.0.0.1:7411   # external server
//! ```
//!
//! With an external address (CI boots `vcsched serve` and points this
//! example at it) the final shutdown request stops that server too, so
//! the smoke test ends cleanly.

use vcsched::service::{serve, Client, Request, Response, ServiceConfig};

fn main() {
    let external = std::env::args().nth(1);
    let handle = if external.is_none() {
        Some(
            serve(ServiceConfig {
                addr: "127.0.0.1:0".into(),
                jobs: 4,
                queue_capacity: 32,
                cache_shards: 4,
                ..ServiceConfig::default()
            })
            .expect("server starts"),
        )
    } else {
        None
    };
    let addr = external.unwrap_or_else(|| handle.as_ref().unwrap().addr().to_string());
    println!("service_stream: targeting {addr}");

    let mut client = Client::connect(addr.as_str()).expect("connect");

    // Pipelining: a slow ping, a fast ping, and an inline stats request
    // go out back-to-back; ids let the replies come home out of order.
    client
        .send(
            &Request::Ping {
                delay_ms: 400,
                priority: None,
            },
            Some(1),
        )
        .expect("send");
    client
        .send(
            &Request::Ping {
                delay_ms: 0,
                priority: None,
            },
            Some(2),
        )
        .expect("send");
    client.send(&Request::Stats, Some(3)).expect("send");
    let mut order = Vec::new();
    for _ in 0..3 {
        let (id, response) = client.recv().expect("reply");
        assert!(response.is_ok(), "unexpected failure: {response:?}");
        order.push(id.expect("id'd replies echo their id"));
    }
    println!("  pipelined completion order: {order:?} (sent 1, 2, 3)");
    assert_eq!(
        order.last(),
        Some(&1),
        "the slow ping must complete last, not block the others"
    );

    // A streamed batch: one `block` frame per solved block, in corpus
    // order, then the summary under the same id.
    client
        .send(
            &Request::Batch {
                bench: "130.li".into(),
                count: 10,
                seed: 3,
                machine: "2c".into(),
                policies: None,
                portfolio: Some(false),
                steps: Some(5_000),
                budget_bytes: None,
                early_cancel: None,
                adaptive: None,
                stream: true,
                deadline_ms: None,
                priority: None,
            },
            Some(4),
        )
        .expect("send batch");
    let mut frames = 0usize;
    loop {
        let (id, response) = client.recv().expect("frame");
        assert_eq!(id, Some(4), "frames carry the batch id");
        match response {
            Response::Block(frame) => {
                assert_eq!(frame.index, frames, "frames arrive in corpus order");
                frames += 1;
                println!(
                    "  block {}: winner {}, AWCT {:.3}{}",
                    frame.index,
                    frame.winner,
                    frame.awct,
                    if frame.cached { " (cached)" } else { "" }
                );
            }
            Response::Batch { summary } => {
                let blocks = summary.get("blocks").cloned();
                println!("  summary after {frames} frames ({blocks:?})");
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(frames, 10, "one frame per block");

    assert_eq!(
        client.request(&Request::Shutdown).expect("response"),
        Response::Bye
    );
    if let Some(handle) = handle {
        handle.join();
    }
    println!("service_stream: OK");
}
