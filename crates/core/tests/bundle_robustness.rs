//! Regression suite for bundle loading: a truncated, corrupted, or padded
//! bundle must come back as a typed [`LehdcError`] with path context —
//! never a panic — through the one `load_bundle` code path the CLI and
//! the serving daemon share.

use std::path::Path;

use hdc::rng::rng_for;
use hdc::{BinaryHv, Dim, RecordEncoder};
use hdc_datasets::MinMaxNormalizer;
use lehdc::format::{
    meta_f32, pack, write_container, write_varint, Artifact, Compression, MetaWriter, HEADER_LEN,
    MAGIC, PAYLOAD_ALIGN, STRIDE_BYTES, VERSION,
};
use lehdc::io::{load_bundle, load_model, read_model, save_bundle, write_bundle, ModelBundle};
use lehdc::{HdcModel, LehdcError};

fn test_bundle() -> ModelBundle {
    let dim = Dim::new(256);
    let encoder = RecordEncoder::builder(dim, 6)
        .levels(8)
        .seed(41)
        .build()
        .unwrap();
    let mut rng = rng_for(41, 1);
    let model = HdcModel::new((0..4).map(|_| BinaryHv::random(dim, &mut rng)).collect()).unwrap();
    let normalizer =
        MinMaxNormalizer::from_parts(vec![0.0; 6], vec![1.0; 6]).unwrap();
    ModelBundle {
        model,
        encoder,
        normalizer: Some(normalizer),
        selection: None,
    }
}

fn bundle_bytes(bundle: &ModelBundle) -> Vec<u8> {
    let mut buf = Vec::new();
    write_bundle(bundle, &mut buf).unwrap();
    buf
}

/// Writes a distilled bundle container by hand (two all-zero classes over
/// the kept `selection` dims), so tests can declare encoder shapes no
/// writer would produce.
fn crafted_bundle(encoder_dim: u64, features: u64, levels: u64, selection: &[u64]) -> Vec<u8> {
    let mut meta = MetaWriter::new();
    meta.u64("dim", selection.len() as u64)
        .u64("classes", 2)
        .u64("encoder_dim", encoder_dim)
        .u64("features", features)
        .u64("levels", levels)
        .u64("seed", 1);
    meta_f32(&mut meta, "vmin", 0.0);
    meta_f32(&mut meta, "vmax", 1.0);
    meta.bool("normalizer", false).bool("distilled", true);
    let mut aux = Vec::new();
    write_varint(&mut aux, selection.len() as u64);
    let mut prev = 0;
    for (i, &d) in selection.iter().enumerate() {
        write_varint(&mut aux, if i == 0 { d } else { d - prev });
        prev = d;
    }
    let words = vec![0u64; 2 * Dim::new(selection.len()).words()];
    let mut buf = Vec::new();
    write_container(
        &mut buf,
        Artifact::Bundle,
        &meta.finish(),
        &aux,
        STRIDE_BYTES,
        &[&words],
    )
    .unwrap();
    buf
}

fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lehdc_bundle_robustness");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn valid_bundle_loads_and_classifies() {
    let bundle = test_bundle();
    let dir = std::env::temp_dir().join("lehdc_bundle_robustness");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("valid.lehdc");
    save_bundle(&bundle, &path).unwrap();
    let loaded = load_bundle(&path).unwrap();
    let row: Vec<f32> = (0..6).map(|i| i as f32 / 6.0).collect();
    assert_eq!(
        loaded.classify(&row).unwrap(),
        bundle.classify(&row).unwrap()
    );
}

#[test]
fn missing_file_names_the_path() {
    let err = load_bundle(Path::new("/nonexistent/dir/model.lehdc")).unwrap_err();
    match err {
        LehdcError::ModelFormat(msg) => {
            assert!(msg.contains("/nonexistent/dir/model.lehdc"), "{msg}");
            assert!(msg.contains("cannot open"), "{msg}");
        }
        other => panic!("expected ModelFormat, got {other:?}"),
    }
}

#[test]
fn truncation_at_every_prefix_is_a_typed_error() {
    // Cutting the bundle anywhere — header, metadata, aux sections, packed
    // payload — must yield a typed error that names the file. This is the
    // "no panic on truncated bundles" contract.
    let bytes = bundle_bytes(&test_bundle());
    // Dense sweep over the header region, sparse over the payload.
    let cuts: Vec<usize> = (0..64.min(bytes.len()))
        .chain((64..bytes.len()).step_by(97))
        .collect();
    for cut in cuts {
        let path = write_temp("truncated.lehdc", &bytes[..cut]);
        match load_bundle(&path) {
            Err(LehdcError::ModelFormat(msg)) => {
                assert!(msg.contains("truncated.lehdc"), "cut={cut}: {msg}")
            }
            Err(other) => panic!("cut={cut}: expected ModelFormat, got {other:?}"),
            Ok(_) => panic!("cut={cut}: truncated bundle must not load"),
        }
    }
}

#[test]
fn header_lengths_beyond_the_file_are_truncation_not_allocation() {
    // A 64-byte file whose header declares a 64 GiB payload (under the
    // planes cap) must fail as truncated, not size a buffer from the header.
    for artifact in [Artifact::Model, Artifact::Bundle] {
        let mut bytes = Vec::new();
        write_container(&mut bytes, artifact, "{}", &[], STRIDE_BYTES, &[]).unwrap();
        assert_eq!(bytes.len(), 64);
        bytes[24..32].copy_from_slice(&(1u64 << 36).to_le_bytes());
        assert!(matches!(
            read_model(bytes.as_slice()),
            Err(LehdcError::ModelFormat(msg)) if msg.contains("truncated")
        ));
        let path = write_temp("huge_planes.lehdc", &bytes);
        for result in [
            load_model(&path).map(|_| ()),
            load_bundle(&path).map(|_| ()),
        ] {
            match result {
                Err(LehdcError::ModelFormat(msg)) => {
                    assert!(msg.contains("truncated"), "{msg}");
                    assert!(msg.contains("huge_planes.lehdc"), "{msg}");
                }
                other => panic!("expected a truncation error, got {other:?}"),
            }
        }
    }
}

/// A packed container assembled byte by byte, so its sections can claim
/// what no writer would produce.
fn packed_container(artifact: Artifact, meta: &[u8], aux: &[u8], words: &[u64]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[artifact.byte(), Compression::Packed.byte(), 0, 0]);
    out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    out.extend_from_slice(&(aux.len() as u64).to_le_bytes());
    out.extend_from_slice(&(words.len() as u64 * 8).to_le_bytes());
    assert_eq!(out.len(), HEADER_LEN);
    out.extend_from_slice(meta);
    out.extend_from_slice(aux);
    out.resize(out.len().next_multiple_of(PAYLOAD_ALIGN), 0);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// A complete packed stream of `len` zero bytes: two length varints and one
/// zero run per bit plane, a few dozen bytes for any `len`.
fn zeros_stream(len: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, len);
    write_varint(&mut out, 1);
    for _ in 0..8 {
        write_varint(&mut out, len);
    }
    out
}

#[test]
fn packed_sections_cannot_claim_more_than_their_bound() {
    let claim = 64u64 << 20;
    let expect_bound_error = |bytes: &[u8], name: &str| {
        let path = write_temp(name, bytes);
        match load_bundle(&path) {
            Err(LehdcError::ModelFormat(msg)) => {
                assert!(msg.contains(&format!("claims {claim} bytes")), "{msg}");
                assert!(msg.contains(name), "{msg}");
            }
            other => panic!("expected a bound error, got {other:?}"),
        }
    };
    // Metadata is bounded by the container's metadata cap. Only the two
    // length varints are needed to make the claim.
    let bytes = packed_container(Artifact::Bundle, &zeros_stream(claim)[..5], &[], &[]);
    assert_eq!(bytes.len(), 64);
    expect_bound_error(&bytes, "huge_meta.lehdc");

    // Aux is bounded by what the parsed metadata allows: this bundle is
    // neither distilled nor normalized, so its aux is one selection-count
    // varint. The stream itself is complete and valid.
    let mut meta = MetaWriter::new();
    meta.u64("dim", 64)
        .u64("classes", 2)
        .u64("encoder_dim", 64)
        .u64("features", 6)
        .u64("levels", 8)
        .u64("seed", 1);
    meta_f32(&mut meta, "vmin", 0.0);
    meta_f32(&mut meta, "vmax", 1.0);
    meta.bool("normalizer", false).bool("distilled", false);
    let meta = pack(meta.finish().as_bytes(), STRIDE_BYTES);
    let bytes = packed_container(Artifact::Bundle, &meta, &zeros_stream(claim), &[0, 0]);
    assert!(bytes.len() < 1024, "{} bytes", bytes.len());
    expect_bound_error(&bytes, "huge_aux.lehdc");
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = bundle_bytes(&test_bundle());
    bytes.extend_from_slice(b"junk");
    let path = write_temp("trailing.lehdc", &bytes);
    match load_bundle(&path) {
        Err(LehdcError::ModelFormat(msg)) => assert!(msg.contains("trailing"), "{msg}"),
        other => panic!("expected trailing-bytes error, got {other:?}"),
    }
}

#[test]
fn corrupted_level_count_is_rejected_before_codebook_work() {
    // The hand-written container itself is valid.
    let sel: Vec<u64> = (0..64).collect();
    let path = write_temp("crafted.lehdc", &crafted_bundle(256, 6, 8, &sel));
    assert_eq!(load_bundle(&path).unwrap().model.dim().get(), 64);
    // An absurd level count must be caught by validation, not by a panic
    // (or an attempted multi-terabyte allocation) inside item-memory
    // construction.
    let path = write_temp("badlevels.lehdc", &crafted_bundle(256, 6, u64::MAX, &sel));
    match load_bundle(&path) {
        Err(LehdcError::ModelFormat(msg)) => assert!(msg.contains("level"), "{msg}"),
        other => panic!("expected level-count error, got {other:?}"),
    }
    // L=1 (too coarse to quantize) must also be caught by validation.
    let path = write_temp("onelevel.lehdc", &crafted_bundle(256, 6, 1, &sel));
    assert!(matches!(
        load_bundle(&path),
        Err(LehdcError::ModelFormat(_))
    ));
}

#[test]
fn oversized_encoder_is_rejected_before_regeneration() {
    // A distilled bundle only carries `dim` bits per class, so a file of a
    // few hundred bytes can declare a 10^9-dim encoder over 10^8 features.
    // Regenerating that item memory would never finish; the loader must
    // refuse the shape first.
    let sel: Vec<u64> = (0..64).map(|i| i * 1_000_000).collect();
    let bytes = crafted_bundle(1_000_000_000, 100_000_000, 2, &sel);
    assert!(bytes.len() < 1024, "{} bytes", bytes.len());
    let path = write_temp("huge_encoder.lehdc", &bytes);
    match load_bundle(&path) {
        Err(LehdcError::ModelFormat(msg)) => {
            assert!(msg.contains("item memory"), "{msg}");
            assert!(msg.contains("huge_encoder.lehdc"), "{msg}");
        }
        other => panic!("expected an item-memory limit error, got {other:?}"),
    }
}

#[test]
fn model_file_passed_as_bundle_is_a_typed_error() {
    let bundle = test_bundle();
    // Container model: same magic as a container bundle, so the artifact
    // byte is what routes the rejection.
    let mut bytes = Vec::new();
    lehdc::io::write_model(&bundle.model, &mut bytes).unwrap();
    let path = write_temp("notabundle.lehdc", &bytes);
    match load_bundle(&path) {
        Err(LehdcError::ModelFormat(msg)) => {
            assert!(msg.contains("not a bundle"), "{msg}");
            assert!(msg.contains("notabundle.lehdc"), "{msg}");
        }
        other => panic!("expected artifact-mismatch error, got {other:?}"),
    }
    // A file in the retired `LEHDCBDL` layout: rejected at the magic check.
    let mut bytes = b"LEHDCBDL".to_vec();
    bytes.extend_from_slice(&[1, 0, 0, 0]);
    bytes.extend_from_slice(&[0; 64]);
    let path = write_temp("retired_magic.lehdc", &bytes);
    match load_bundle(&path) {
        Err(LehdcError::ModelFormat(msg)) => {
            assert!(msg.contains("magic"), "{msg}");
            assert!(msg.contains("retired_magic.lehdc"), "{msg}");
        }
        other => panic!("expected bad-magic error, got {other:?}"),
    }
}

#[test]
fn batch_classify_matches_serial_and_reports_bad_rows() {
    let bundle = test_bundle();
    use testkit::Rng;
    let mut rng = rng_for(7, 7);
    let rows: Vec<Vec<f32>> = (0..53)
        .map(|_| {
            (0..6)
                .map(|_| (rng.random::<u64>() % 1000) as f32 / 1000.0)
                .collect()
        })
        .collect();
    let serial: Vec<usize> = rows.iter().map(|r| bundle.classify(r).unwrap()).collect();
    for threads in [1, 2, 4] {
        assert_eq!(bundle.classify_all(&rows, threads).unwrap(), serial);
    }

    let mut bad = rows;
    bad[17] = vec![0.5; 5]; // wrong feature count mid-batch
    match bundle.classify_all(&bad, 2) {
        Err(LehdcError::InvalidConfig(msg)) => {
            assert!(msg.contains("row 17"), "{msg}");
            assert!(msg.contains("expected 6"), "{msg}");
        }
        other => panic!("expected row-indexed error, got {other:?}"),
    }
}
