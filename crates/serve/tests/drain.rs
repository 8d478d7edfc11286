//! The accept loop hands over each connection as it arrives, and an
//! idle daemon or gateway returns from `run()` promptly on either
//! shutdown path: [`ServiceHandle::shutdown`] and the signal flag.
//!
//! The signal flag is process-global, so every test here takes one
//! lock and they run one at a time.

use ptmap_serve::{
    signal, DrainSummary, Gateway, GatewayConfig, GatewaySummary, ServeConfig, Server,
    ServiceHandle,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long an idle service may take to return from `run()`.
const STOP_BOUND: Duration = Duration::from_secs(1);

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A booted service: its address, its handle, and the channel its
/// `run()` result arrives on, so a test waits with a bound, never hangs.
struct Running<T> {
    addr: SocketAddr,
    handle: ServiceHandle,
    done: Receiver<T>,
}

impl<T: Send + 'static> Running<T> {
    fn start(
        addr: SocketAddr,
        handle: ServiceHandle,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> Self {
        let (tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run());
        });
        Running { addr, handle, done }
    }

    /// Waits at most [`STOP_BOUND`] for `run()` to return.
    fn returned(&self, what: &str) -> T {
        self.done
            .recv_timeout(STOP_BOUND)
            .unwrap_or_else(|e| panic!("{what} did not return within {STOP_BOUND:?}: {e}"))
    }
}

fn daemon() -> Running<DrainSummary> {
    daemon_on("127.0.0.1:0")
}

fn daemon_on(addr: &str) -> Running<DrainSummary> {
    let server = Server::bind(ServeConfig {
        addr: addr.to_string(),
        drain_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().expect("daemon addr");
    Running::start(addr, server.handle(), move || server.run())
}

/// A gateway whose prober would sleep far past [`STOP_BOUND`] if the
/// drain could not wake it.
fn gateway(peer: SocketAddr) -> Running<GatewaySummary> {
    let gateway = Gateway::bind(GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        peers: vec![peer.to_string()],
        probe_interval: Duration::from_secs(5),
        drain_timeout: Duration::from_secs(5),
        ..GatewayConfig::default()
    })
    .expect("bind gateway");
    let addr = gateway.local_addr().expect("gateway addr");
    Running::start(addr, gateway.handle(), move || gateway.run())
}

/// `GET /healthz`; returns the status code.
fn healthz(addr: SocketAddr) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: ptmap\r\nContent-Length: 0\r\n\r\n")
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status code")
}

#[test]
fn idle_daemon_answers_each_connection_as_it_arrives() {
    let _serial = serial();
    let daemon = daemon();
    std::thread::sleep(Duration::from_millis(50));
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            assert_eq!(healthz(daemon.addr), 200);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(
        median < 5.0,
        "median /healthz round trip {median:.2} ms; sorted: {ms:?}"
    );
    daemon.handle.shutdown();
    assert!(daemon.returned("daemon").clean);
}

#[test]
fn idle_daemon_and_gateway_return_after_handle_shutdown() {
    let _serial = serial();
    let daemon = daemon();
    let gateway = gateway(daemon.addr);
    assert_eq!(healthz(gateway.addr), 200);
    std::thread::sleep(Duration::from_millis(50));
    gateway.handle.shutdown();
    assert!(gateway.returned("gateway").clean);
    daemon.handle.shutdown();
    assert!(daemon.returned("daemon").clean);
}

#[test]
fn daemon_on_every_interface_wakes_through_loopback() {
    let _serial = serial();
    let daemon = daemon_on("0.0.0.0:0");
    std::thread::sleep(Duration::from_millis(50));
    daemon.handle.shutdown();
    assert!(daemon.returned("daemon").clean);
}

/// Clears the process-global signal flag however the test ends.
struct ResetSignal;

impl Drop for ResetSignal {
    fn drop(&mut self) {
        signal::reset_for_test();
    }
}

#[test]
fn idle_daemon_and_gateway_return_after_a_signal() {
    let _serial = serial();
    let _reset = ResetSignal;
    let daemon = daemon();
    let gateway = gateway(daemon.addr);
    assert_eq!(healthz(gateway.addr), 200);
    std::thread::sleep(Duration::from_millis(50));
    signal::request_shutdown();
    assert!(gateway.returned("gateway").clean);
    assert!(daemon.returned("daemon").clean);
}
