//! Parser/serializer throughput on generated XMark-like data.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use whirlpool_xmark::{generate, GeneratorConfig};
use whirlpool_xml::{parse_document, write_document, WriteOptions};

fn bench_parse(c: &mut Criterion) {
    let doc = generate(&GeneratorConfig::items(500));
    let xml = write_document(&doc, &WriteOptions::default());

    let mut group = c.benchmark_group("xml");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("parse", |b| {
        b.iter(|| parse_document(black_box(&xml)).expect("valid XML"))
    });
    group.bench_function("serialize", |b| {
        b.iter(|| write_document(black_box(&doc), &WriteOptions::default()))
    });
    group.bench_function("generate_500_items", |b| {
        b.iter(|| generate(&GeneratorConfig::items(500)))
    });
    group.finish();
}

criterion_group!(benches, bench_parse);
criterion_main!(benches);
