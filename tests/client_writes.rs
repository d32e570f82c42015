//! The wire client sends each request frame in one transport write.
//!
//! A frame is serialized as many small `write!` fragments (the verb line,
//! each kv, each payload line). Unbuffered, every fragment became its own
//! pipe chunk or TCP segment and its own wake-up of the connection thread.
//! The client buffers its writer, so a frame leaves at the flush that ends
//! each request: one write for any frame that fits the buffer, and roughly
//! buffer-sized writes for the rest. These tests count the writes that
//! reach the transport under a real server over TCP.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mcfs_repro::core::{Edit, Facility, McfsInstance};
use mcfs_repro::gen::customers::uniform_customers;
use mcfs_repro::gen::{generate_city, CitySpec, CityStyle};
use mcfs_repro::graph::GraphBuilder;
use mcfs_repro::io::write_instance;
use mcfs_repro::server::{Client, OpenKind, ServerConfig, ServerHandle};

/// Counts the `write` calls and bytes that reach the wrapped transport.
struct CountingWriter {
    inner: TcpStream,
    writes: Arc<AtomicUsize>,
    bytes: Arc<AtomicUsize>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.writes.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(n, Ordering::SeqCst);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A client over TCP whose writes are counted.
struct Counted {
    client: Client,
    writes: Arc<AtomicUsize>,
    bytes: Arc<AtomicUsize>,
}

impl Counted {
    fn connect(server: &mut ServerHandle) -> Counted {
        let addr = server.serve_tcp("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let writes = Arc::new(AtomicUsize::new(0));
        let bytes = Arc::new(AtomicUsize::new(0));
        let writer = CountingWriter {
            inner: stream.try_clone().unwrap(),
            writes: Arc::clone(&writes),
            bytes: Arc::clone(&bytes),
        };
        let client = Client::new(stream, writer).unwrap();
        Counted {
            client,
            writes,
            bytes,
        }
    }

    /// Run one request; return the writes and bytes it cost the transport.
    fn count<T>(&mut self, request: impl FnOnce(&mut Client) -> T) -> (usize, usize, T) {
        let writes = self.writes.load(Ordering::SeqCst);
        let bytes = self.bytes.load(Ordering::SeqCst);
        let out = request(&mut self.client);
        (
            self.writes.load(Ordering::SeqCst) - writes,
            self.bytes.load(Ordering::SeqCst) - bytes,
            out,
        )
    }
}

fn instance_text(inst: &McfsInstance) -> String {
    let mut buf = Vec::new();
    write_instance(&mut buf, inst).unwrap();
    String::from_utf8(buf).unwrap()
}

/// A 4×4 grid with two stations: small enough that its `OPEN` fits the
/// client's buffer.
fn small_instance_text() -> String {
    let mut b = GraphBuilder::new(16);
    for r in 0..4u32 {
        for c in 0..4u32 {
            let v = r * 4 + c;
            if c < 3 {
                b.add_edge(v, v + 1, 100);
            }
            if r < 3 {
                b.add_edge(v, v + 4, 100);
            }
        }
    }
    let g = b.build();
    let inst = McfsInstance::builder(&g)
        .customers([0, 3, 5, 6, 9, 10, 12, 15])
        .facility(5, 8)
        .facility(10, 8)
        .k(2)
        .build()
        .unwrap();
    instance_text(&inst)
}

#[test]
fn each_request_frame_is_one_transport_write() {
    let mut server = ServerHandle::start(ServerConfig::default());
    let mut c = Counted::connect(&mut server);

    let text = small_instance_text();
    let (writes, bytes, reply) =
        c.count(|cl| cl.open_text("grid", OpenKind::Instance, &text).unwrap());
    assert!(reply.is_ok());
    assert!(text.lines().count() > 20, "the OPEN carries a real payload");
    assert!(bytes > text.len(), "the whole frame was sent");
    assert_eq!(writes, 1, "OPEN with a {}-byte payload", text.len());

    // An 8-edit what-if: move four customers to four other nodes.
    let mut edits: Vec<Edit> = (0..4).map(|_| Edit::RemoveCustomer { index: 0 }).collect();
    edits.extend([1, 2, 4, 7].map(|node| Edit::AddCustomer { node }));
    let (writes, _, reply) = c.count(|cl| cl.edit("grid", &edits).unwrap());
    assert!(reply.is_ok());
    assert_eq!(writes, 1, "an 8-edit EDIT");

    let (writes, _, reply) = c.count(|cl| cl.solve("grid").unwrap());
    assert!(reply.kv("objective").is_some());
    assert_eq!(writes, 1, "SOLVE");

    let (writes, _, solution) = c.count(|cl| cl.solution("grid").unwrap());
    assert_eq!(solution.assignment.len(), 8);
    assert_eq!(writes, 1, "ASSIGNMENT");

    drop(c);
    server.shutdown();
}

#[test]
fn a_frame_past_the_buffer_leaves_in_buffer_sized_writes() {
    let g = generate_city(&CitySpec {
        name: "client-writes",
        target_nodes: 2500,
        style: CityStyle::Grid,
        avg_edge_len: 90.0,
        seed: 7,
    });
    let inst = McfsInstance::builder(&g)
        .customers(uniform_customers(&g, 40, 3))
        .facilities(
            g.nodes()
                .step_by(97)
                .map(|node| Facility { node, capacity: 40 }),
        )
        .k(4)
        .build()
        .unwrap();
    let text = instance_text(&inst);
    let lines = text.lines().count();

    let mut server = ServerHandle::start(ServerConfig::default());
    let mut c = Counted::connect(&mut server);
    let (writes, bytes, reply) =
        c.count(|cl| cl.open_text("city", OpenKind::Instance, &text).unwrap());
    assert!(reply.is_ok());
    // Unbuffered, this frame cost at least one write per payload line.
    // Every buffered write but the last carries at least half of the 8 KiB
    // buffer, since no fragment of this frame is longer than half of it.
    assert!(lines > 5000, "{lines} payload lines");
    assert!(
        writes <= bytes / 4096 + 1,
        "{writes} writes for {bytes} bytes ({lines} payload lines)"
    );
    drop(c);
    server.shutdown();
}
