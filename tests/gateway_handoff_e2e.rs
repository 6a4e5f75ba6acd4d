//! Reader → shard hand-off under the two ways a connection's input can
//! stop short of a clean EOF: a frame-read error, and a `STATS` scrape in
//! the middle of the stream. Readings a connection has already decoded
//! must reach their shards in both cases, and a scrape must already count
//! every reading sent before it on the same connection.

use std::io::{Read, Write};
use std::net::TcpStream;

use esp_core::Pipeline;
use esp_gateway::{Gateway, GatewayClient, GatewayConfig};
use esp_integration_tests::gateway_harness::groups;
use esp_receptors::framing::{FrameWriter, MAX_FRAME_LEN};
use esp_receptors::wire::Reading;
use esp_types::{ReceptorId, TimeDelta, Ts};

/// Hello for protocol version 1 with a zero lateness promise: magic
/// `"ESPG"`, version, lateness in ms (all big-endian).
fn hello() -> [u8; 14] {
    let mut h = [0u8; 14];
    h[0..4].copy_from_slice(&0x4553_5047u32.to_be_bytes());
    h[4..6].copy_from_slice(&1u16.to_be_bytes());
    h
}

/// Reading `i` of a stream spread round-robin over the three receptors
/// the shared groups register.
fn reading(i: u64) -> Reading {
    Reading::Scalar {
        receptor: ReceptorId((i % 3) as u32),
        ts: Ts::from_millis(i * 10),
        value: i as f64,
    }
}

/// Value of the unlabelled sample `name` in a text exposition.
fn sample(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (n, v) = line.rsplit_once(' ')?;
        (n == name).then(|| v.parse().ok()).flatten()
    })
}

/// Sum of every labelled sample of `name`.
fn labelled_sum(text: &str, name: &str) -> u64 {
    let prefix = format!("{name}{{");
    text.lines()
        .filter_map(|line| {
            let (n, v) = line.rsplit_once(' ')?;
            n.starts_with(&prefix)
                .then(|| v.parse::<u64>().ok())
                .flatten()
        })
        .sum()
}

/// Send `n` good frames and then the length prefix `bad`, outside the
/// framing bounds, all in one write, so the gateway decodes every good
/// frame before it meets the bad prefix and drops the connection.
fn good_frames_then_bad_length(edge_capacity: usize, n: u64, bad: u32) {
    let mut config = GatewayConfig::new(groups());
    config.n_shards = 2;
    config.edge_capacity = edge_capacity;
    let gateway = Gateway::spawn(config, |_| Pipeline::raw()).unwrap();

    let mut stream = TcpStream::connect(gateway.local_addr()).unwrap();
    stream.write_all(&hello()).unwrap();
    let mut ack = [0u8; 1];
    stream.read_exact(&mut ack).unwrap();
    assert_eq!(ack[0], 0x01, "handshake accepted");

    let mut bytes = FrameWriter::new(Vec::new());
    for i in 0..n {
        bytes.write_reading(&reading(i)).unwrap();
    }
    let mut bytes = bytes.into_inner();
    bytes.extend_from_slice(&bad.to_be_bytes());
    stream.write_all(&bytes).unwrap();
    drop(stream);

    let output = gateway.finish().unwrap();
    let case = format!("capacity {edge_capacity}, length {bad}");
    assert_eq!(output.stats.frames, n, "{case}");
    assert_eq!(output.stats.readings, n, "{case}");
    assert_eq!(output.total_tuples() as u64, n, "{case}");
    assert_eq!(output.stats.io_errors, 1, "{case}");
    assert_eq!(output.stats.queue_sends, n, "{case}");
}

#[test]
fn readings_before_a_bad_length_prefix_are_delivered() {
    // Default queues, and queues small enough that the frames fill
    // several hand-offs before the error; a zero length and one past
    // the maximum.
    for capacity in [GatewayConfig::new(groups()).edge_capacity, 3] {
        for bad in [0, MAX_FRAME_LEN as u32 + 1] {
            good_frames_then_bad_length(capacity, 300, bad);
        }
    }
}

#[test]
fn mid_stream_scrape_counts_every_reading_sent_before_it() {
    let mut config = GatewayConfig::new(groups());
    config.n_shards = 4;
    let gateway = Gateway::spawn(config, |_| Pipeline::raw()).unwrap();

    let mut client = GatewayClient::connect(gateway.local_addr(), TimeDelta::ZERO).unwrap();
    // The readings and the scrape request leave in one buffered write, so
    // the gateway finds the request right behind readings it has decoded
    // but not necessarily handed off yet.
    let first = 100u64;
    for i in 0..first {
        client.send(&reading(i)).unwrap();
    }
    let text = client.scrape().unwrap();
    assert_eq!(sample(&text, "esp_gateway_frames_total"), Some(first));
    assert_eq!(sample(&text, "esp_gateway_readings_total"), Some(first));
    assert_eq!(
        labelled_sum(&text, "esp_gateway_shard_readings_total"),
        first
    );
    assert_eq!(sample(&text, "esp_stream_queue_sends_total"), Some(first));

    let total = first + 50;
    for i in first..total {
        client.send(&reading(i)).unwrap();
    }
    let text = client.scrape().unwrap();
    assert_eq!(sample(&text, "esp_gateway_readings_total"), Some(total));
    assert_eq!(sample(&text, "esp_stream_queue_sends_total"), Some(total));
    assert_eq!(sample(&text, "esp_gateway_stats_requests_total"), Some(2));

    client.finish().unwrap();
    let output = gateway.finish().unwrap();
    assert_eq!(output.stats.readings, total);
    assert_eq!(output.total_tuples() as u64, total);
    assert_eq!(output.stats.io_errors, 0);
}
