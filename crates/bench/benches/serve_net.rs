//! Acceptance bench for the networked service tier (`afp::net`), in
//! two parts:
//!
//! * `write_path_*` — one fact-toggle write cycle per iteration,
//!   through each layer of the stack: `service` is the in-process
//!   blocking write (submit to the writer thread's queue, then wait on
//!   the handle), and `wire_tcp` adds the full length-prefixed
//!   loopback round trip. The delta between the two is the cost of the
//!   transport. After the `service` run the service's own p50/p99
//!   submit→completion latencies (from `Service::queue_stats`) are
//!   printed for BENCH_net.json.
//!
//! * `mixed_wire_conns_*` — sustained mixed read/write throughput over
//!   the wire: `t` client connections each issue a fixed block of
//!   framed commands (9 queries : 1 write toggle) against one server;
//!   per-iteration time divided into `t × OPS` gives aggregate
//!   commands/sec. Reads run lock-free on pinned snapshots in the
//!   connection threads; writes funnel through the shared writer
//!   queue and coalesce. Connection-count parameterized — on the
//!   1-core CI runner the value of `t` mostly exercises fairness, not
//!   parallel speedup; see BENCH_net.json for the recorded context.

use afp::net::codec::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
use afp::{Engine, NetOptions, NetServer};
use afp_bench::gen::{node_name, Graph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::net::TcpStream;
use std::thread;

fn win_move_src(g: &Graph) -> String {
    let mut src = String::from("wins(X) :- move(X, Y), not wins(Y).\n");
    for &(u, v) in &g.edges {
        src.push_str(&format!("move({}, {}).\n", node_name(u), node_name(v)));
    }
    src
}

fn send(conn: &mut TcpStream, line: &str) -> String {
    write_frame(conn, line.as_bytes()).unwrap();
    String::from_utf8(
        read_frame(conn, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("response frame"),
    )
    .unwrap()
}

fn write_path(c: &mut Criterion) {
    let g = Graph::random_regular_out(256, 3, 42);
    let src = win_move_src(&g);
    let toggle_on = format!("move({}, sink).", node_name(0));
    let mut group = c.benchmark_group("net/write_path_win_move_256");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("tier", "service"), |b| {
        let service = Engine::default().serve(&src).unwrap();
        let mut present = false;
        b.iter(|| {
            present = !present;
            let v = if present {
                service.assert_facts(&toggle_on).unwrap()
            } else {
                service.retract_facts(&toggle_on).unwrap()
            };
            std::hint::black_box(v)
        });
        let stats = service.queue_stats();
        eprintln!(
            "service submit->completion latency over {} writes: \
             p50 {} us, p99 {} us (for BENCH_net.json)",
            stats.completed, stats.write_p50_us, stats.write_p99_us
        );
    });

    group.bench_function(BenchmarkId::new("tier", "wire_tcp"), |b| {
        let service = Engine::default().serve(&src).unwrap();
        let server =
            NetServer::bind_tcp(service.clone(), "127.0.0.1:0", NetOptions::default()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let mut present = false;
        b.iter(|| {
            present = !present;
            let cmd = if present {
                format!("assert-facts {toggle_on}")
            } else {
                format!("retract-facts {toggle_on}")
            };
            std::hint::black_box(send(&mut conn, &cmd))
        });
        drop(conn);
        server.shutdown();
    });

    group.finish();
}

const OPS: usize = 200;

fn mixed_wire(c: &mut Criterion) {
    let g = Graph::random_regular_out(256, 3, 42);
    let service = Engine::default().serve(&win_move_src(&g)).unwrap();
    let server = NetServer::bind_tcp(service, "127.0.0.1:0", NetOptions::default()).unwrap();
    let nodes: Vec<String> = (0..256u32).map(node_name).collect();

    let mut group = c.benchmark_group("net/mixed_wire_win_move_256");
    group.sample_size(10);
    for t in [1usize, 2, 4] {
        let mut conns: Vec<TcpStream> = (0..t)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        group.bench_function(BenchmarkId::new("conns", t), |b| {
            b.iter(|| {
                thread::scope(|s| {
                    for (worker, conn) in conns.iter_mut().enumerate() {
                        let nodes = &nodes;
                        s.spawn(move || {
                            // 9 queries : 1 write toggle; toggles are
                            // worker-namespaced and balanced per block.
                            let mut present = false;
                            for i in 0..OPS {
                                let resp = if i % 10 == 0 {
                                    present = !present;
                                    let kind = if present {
                                        "assert-facts"
                                    } else {
                                        "retract-facts"
                                    };
                                    send(conn, &format!("{kind} move(w{worker}, sink)."))
                                } else {
                                    let node = &nodes[(worker * 7919 + i) % nodes.len()];
                                    send(conn, &format!("query wins({node})"))
                                };
                                std::hint::black_box(resp);
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
    server.shutdown();
}

criterion_group!(benches, write_path, mixed_wire);
criterion_main!(benches);
