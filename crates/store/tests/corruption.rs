//! The corruption matrix: every way to damage an artifact, pinned to
//! its typed [`StoreError`] class.
//!
//! The invariant under test is the loader's contract — *never panic,
//! always classify*: any truncation, any single bit flip, any byte
//! smash anywhere in the file must surface as an `Err` whose kind is
//! determined by the damaged region, never as a decoded-but-wrong
//! world and never as a panic.

use borges_core::pipeline::Borges;
use borges_llm::SimLlm;
use borges_store::{
    decode_world, element_offsets, encode_world, Corruptor, StoreError, FORMAT_VERSION,
    STORE_SCHEMA_VERSION,
};
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_websim::SimWebClient;
use proptest::prelude::*;
use std::sync::OnceLock;

fn artifact_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(271828));
        let llm = SimLlm::new(271828);
        let borges = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        encode_world(&borges.to_world())
    })
}

/// Region map of the artifact: which error class a flip at `offset`
/// must produce.
fn expected_flip_kinds(bytes: &[u8], offset: usize) -> Vec<&'static str> {
    let offsets = element_offsets(bytes);
    let footer_magic_start = offsets[offsets.len() - 2];
    let digest_start = offsets[offsets.len() - 1];
    if offset < 8 {
        return vec!["bad_magic"];
    }
    if offset < 24 {
        // Any header flip breaks the header CRC; a flip *in* the CRC
        // field itself also reads as header corruption.
        return vec!["header_corrupt"];
    }
    if offset >= digest_start {
        return vec!["digest_mismatch"];
    }
    if offset >= footer_magic_start {
        return vec!["footer_missing"];
    }
    // Inside the section table. A flip in a payload is a section
    // checksum failure; a flip in a length prefix or name or stored
    // CRC can masquerade as truncation (lengths now point past EOF or
    // carve the file differently), a checksum failure, a missing
    // section (renamed), or a footer that is no longer where the new
    // carving expects it.
    vec![
        "section_checksum",
        "truncated",
        "decode",
        "footer_missing",
        "digest_mismatch",
    ]
}

#[test]
fn truncation_at_every_element_boundary_is_typed() {
    let bytes = artifact_bytes();
    for &offset in &element_offsets(bytes) {
        if offset == bytes.len() {
            continue;
        }
        let err = decode_world(&bytes[..offset]).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::FooterMissing
            ),
            "cut at {offset}: {err:?}"
        );
    }
}

#[test]
fn every_single_byte_truncation_fails_closed() {
    // Not just section boundaries: cutting the file after any prefix
    // length must fail with a typed error. Sweep a seeded sample plus
    // the full sub-header range (cheap and exhaustive where it is most
    // structural).
    let bytes = artifact_bytes();
    for cut in 0..24.min(bytes.len()) {
        assert!(decode_world(&bytes[..cut]).is_err(), "cut {cut}");
    }
    let mut corruptor = Corruptor::new(31337);
    for _ in 0..512 {
        let cut = corruptor.below(bytes.len());
        assert!(decode_world(&bytes[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn seeded_bit_flip_sweep_maps_to_region_classes() {
    let bytes = artifact_bytes();
    let mut corruptor = Corruptor::new(4242);
    for round in 0..512 {
        let mut damaged = bytes.to_vec();
        let (offset, bit) = corruptor.flip_bit(&mut damaged);
        let err = decode_world(&damaged).expect_err(&format!(
            "round {round}: flip {offset}:{bit} went undetected"
        ));
        let allowed = expected_flip_kinds(bytes, offset);
        assert!(
            allowed.contains(&err.kind()),
            "round {round}: flip at {offset}:{bit} gave {:?} ({}), expected one of {allowed:?}",
            err,
            err.kind()
        );
    }
}

/// Re-encodes a doctored copy of the clean world (so every checksum and
/// the digest are honest) and returns the typed refusal.
fn insane_world_error(doctor: impl FnOnce(&mut borges_core::world::CompiledWorld)) -> StoreError {
    let mut world = decode_world(artifact_bytes())
        .expect("clean artifact decodes")
        .world;
    doctor(&mut world);
    decode_world(&encode_world(&world)).expect_err("a doctored world decoded")
}

fn assert_world_decode_error(err: StoreError, what: &str) {
    match &err {
        StoreError::Decode { section, detail } => {
            assert_eq!(section, "world", "{what}: {detail}");
        }
        other => panic!("{what}: expected a world decode error, got {other:?}"),
    }
}

#[test]
fn out_of_order_duplicate_and_oversized_keys_are_world_decode_errors() {
    // Well-checksummed worlds that only a broken writer produces. The
    // record-delta merge-join and the timeline's direct replay trust the
    // fingerprint order and the notes/aka key width, so the loader must
    // refuse these before either runs.
    let mut corruptor = Corruptor::new(0x5eed);
    let pick = |corruptor: &mut Corruptor, len: usize| {
        assert!(len >= 2, "the tiny world has records to reorder");
        corruptor.below(len - 1)
    };

    let err = insane_world_error(|world| {
        let fps = &mut world.state.whois_aut_fps;
        let i = pick(&mut corruptor, fps.len());
        fps.swap(i, i + 1);
    });
    assert_world_decode_error(err, "swapped aut-num fingerprints");

    let err = insane_world_error(|world| {
        let fps = &mut world.state.pdb_net_fps;
        let i = pick(&mut corruptor, fps.len());
        let copy = fps[i].clone();
        fps.insert(i + 1, copy);
    });
    assert_world_decode_error(err, "duplicated network fingerprint");

    let err = insane_world_error(|world| {
        let na = &mut world.state.na;
        let i = pick(&mut corruptor, na.len());
        na[i].key = (u64::from(u32::MAX) + 1 + i as u64).to_string();
    });
    assert_world_decode_error(err, "notes/aka key past u32::MAX");
}

#[test]
fn schema_and_format_version_skew_is_schema_mismatch() {
    let bytes = artifact_bytes();
    // Rewrite the versions and re-stamp the header CRC so the header
    // is self-consistent — the skew must then be caught as a version
    // check, not a checksum failure.
    let restamp = |field_offset: usize, value: u32| -> StoreError {
        let mut doctored = bytes.to_vec();
        doctored[field_offset..field_offset + 4].copy_from_slice(&value.to_le_bytes());
        let crc = borges_store::crc32::crc32(&doctored[..20]);
        doctored[20..24].copy_from_slice(&crc.to_le_bytes());
        decode_world(&doctored).unwrap_err()
    };
    match restamp(8, FORMAT_VERSION + 1) {
        StoreError::SchemaMismatch { found, expected } => {
            assert_eq!((found, expected), (FORMAT_VERSION + 1, FORMAT_VERSION));
        }
        other => panic!("format skew gave {other:?}"),
    }
    match restamp(12, STORE_SCHEMA_VERSION + 7) {
        StoreError::SchemaMismatch { found, expected } => {
            assert_eq!(
                (found, expected),
                (STORE_SCHEMA_VERSION + 7, STORE_SCHEMA_VERSION)
            );
        }
        other => panic!("schema skew gave {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_truncation_never_panics_and_always_errs(cut in 0usize..1_000_000) {
        let bytes = artifact_bytes();
        let cut = cut % bytes.len();
        prop_assert!(decode_world(&bytes[..cut]).is_err());
    }

    #[test]
    fn prop_single_bit_flip_is_always_detected(
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let bytes = artifact_bytes();
        let offset = offset % bytes.len();
        let mut damaged = bytes.to_vec();
        damaged[offset] ^= 1 << bit;
        let err = decode_world(&damaged)
            .expect_err(&format!("flip at {offset}:{bit} decoded successfully"));
        let allowed = expected_flip_kinds(bytes, offset);
        prop_assert!(
            allowed.contains(&err.kind()),
            "flip at {offset}:{bit} gave {} expected {allowed:?}",
            err.kind()
        );
    }

    #[test]
    fn prop_random_byte_smash_never_panics(seed in 0u64..u64::MAX, smashes in 1usize..64) {
        let bytes = artifact_bytes();
        let mut corruptor = Corruptor::new(seed);
        let mut damaged = bytes.to_vec();
        for _ in 0..smashes {
            corruptor.flip_byte(&mut damaged);
        }
        // Multiple random byte smashes: decoding must return (either
        // result is structurally possible only if flips cancel — the
        // corruptor guarantees each draw changes its byte, but two
        // draws may hit the same byte). The contract under test is
        // purely "no panic, and any Ok is byte-faithful".
        if let Ok(loaded) = decode_world(&damaged) {
            prop_assert_eq!(encode_world(&loaded.world), damaged);
        }
    }

    #[test]
    fn prop_arbitrary_garbage_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = decode_world(&garbage);
    }
}
