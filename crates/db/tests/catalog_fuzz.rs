//! Catalog decoder fuzzing: `Catalog::read_region_entry` and
//! `Catalog::read_region_field` over arbitrary bytes, over arbitrary
//! descriptors behind a valid header, and over a valid
//! `standard_schema()` region with random truncations and byte flips.
//! The API runs these decoders on every call, over bytes an injector
//! may have corrupted, so whatever the region holds they return a
//! typed error or an entry whose extents lie inside the region, and
//! never panic.

use proptest::prelude::*;
use wtnc_db::layout::{
    write_le, CATALOG_HEADER_SIZE, CATALOG_MAGIC, FIELD_DESC_SIZE, RECORD_HEADER_SIZE,
    TABLE_DESC_SIZE,
};
use wtnc_db::{schema, Catalog, Database, DbError, FieldId, TableId};

/// Table ids probed: every table of the standard schema plus ids past
/// any table count the fuzz stamps.
const TABLE_IDS: u16 = 12;
/// Field ids probed: every field of the widest standard table plus
/// ids past its field count.
const FIELD_IDS: u16 = 16;

/// Decodes every probed table and field of `region` and checks that an
/// `Ok` entry lies inside the region and an `Ok` field inside its
/// record. Returns how many fields decoded.
fn decode_all(region: &[u8]) -> Result<usize, prop::test_runner::TestCaseError> {
    let mut fields = 0;
    for t in 0..TABLE_IDS {
        let table = TableId(t);
        let entry = match Catalog::read_region_entry(region, table) {
            Ok(entry) => entry,
            Err(e) => {
                prop_assert!(
                    matches!(e, DbError::CatalogCorrupt { .. } | DbError::UnknownTable(_)),
                    "table {t}: untyped error {e:?}"
                );
                continue;
            }
        };
        let extent = entry.record_size as u128 * entry.record_count as u128;
        prop_assert!(entry.record_size >= RECORD_HEADER_SIZE, "table {t}: {entry:?}");
        prop_assert!(entry.offset as u128 + extent <= region.len() as u128, "table {t}: {entry:?}");
        let descs = entry.field_count as u128 * FIELD_DESC_SIZE as u128;
        prop_assert!(
            entry.field_desc_offset as u128 + descs <= region.len() as u128,
            "table {t}: {entry:?}"
        );
        for f in 0..FIELD_IDS {
            match Catalog::read_region_field(region, table, &entry, FieldId(f)) {
                Ok(field) => {
                    let desc = entry.field_desc_offset + f as usize * FIELD_DESC_SIZE;
                    prop_assert!(desc + FIELD_DESC_SIZE <= region.len(), "field {t}.{f}");
                    prop_assert!(
                        field.offset_in_record + field.width.bytes() <= entry.record_size,
                        "field {t}.{f}: {field:?} outside a {}-byte record",
                        entry.record_size
                    );
                    fields += 1;
                }
                Err(e) => prop_assert!(
                    matches!(e, DbError::CatalogCorrupt { .. } | DbError::UnknownField(..)),
                    "field {t}.{f}: untyped error {e:?}"
                ),
            }
        }
    }
    Ok(fields)
}

fn standard_region() -> Vec<u8> {
    Database::build(schema::standard_schema()).unwrap().region().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_decode_without_panicking(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_all(&bytes)?;
    }

    /// A header that passes (real magic, matching size, small table
    /// count) in front of noise, with some table descriptors
    /// stamped with their own id and small extents, so the extent and
    /// field checks themselves see the noise.
    #[test]
    fn arbitrary_descriptors_decode_without_panicking(
        // Mostly zero and small bytes, so field descriptors often carry
        // a real width code and an offset inside the record.
        mut bytes in prop::collection::vec(
            prop_oneof![Just(0u8), Just(0u8), 1u8..=8, any::<u8>()],
            CATALOG_HEADER_SIZE..2048,
        ),
        tables in 0u64..TABLE_IDS as u64,
        descs in prop::collection::vec(
            (
                any::<bool>(),
                any::<prop::sample::Index>(),
                0u64..64,
                0u64..64,
                0u64..FIELD_IDS as u64,
                any::<prop::sample::Index>(),
            ),
            0..TABLE_IDS as usize,
        ),
    ) {
        let len = bytes.len();
        write_le(&mut bytes[0..], 4, CATALOG_MAGIC as u64);
        write_le(&mut bytes[4..], 4, tables);
        write_le(&mut bytes[8..], 4, len as u64);
        for (t, &(stamp, offset, record_size, record_count, fields, desc_at)) in
            descs.iter().enumerate()
        {
            let d = CATALOG_HEADER_SIZE + t * TABLE_DESC_SIZE;
            if !stamp || d + TABLE_DESC_SIZE > len {
                continue;
            }
            for (at, value) in [
                (0, t as u64),
                (4, offset.index(len) as u64),
                (8, record_size),
                (12, record_count),
                (16, fields),
                (20, desc_at.index(len) as u64),
            ] {
                let width = if at == 0 { 2 } else { 4 };
                write_le(&mut bytes[d + at..], width, value);
            }
        }
        decode_all(&bytes)?;
    }

    /// A valid region, cut short (optionally re-stamping the stored
    /// size so the cut passes the size check) and with bytes of the
    /// catalog area flipped.
    #[test]
    fn damaged_catalogs_decode_without_panicking(
        whole in any::<bool>(),
        cut in any::<prop::sample::Index>(),
        restamp in any::<bool>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 0..6),
    ) {
        let mut region = standard_region();
        let catalog_len = Catalog::build(schema::standard_schema()).unwrap().catalog_len();
        if !whole {
            region.truncate(cut.index(region.len() + 1));
            if restamp && region.len() >= CATALOG_HEADER_SIZE {
                let len = region.len() as u64;
                write_le(&mut region[8..], 4, len);
            }
        }
        let span = catalog_len.min(region.len());
        if span > 0 {
            for (at, mask) in &flips {
                region[at.index(span)] ^= mask;
            }
        }
        let fields = decode_all(&region)?;
        if whole && flips.is_empty() {
            // The undamaged catalog decodes every field of the schema.
            let total: usize = schema::standard_schema().iter().map(|t| t.fields.len()).sum();
            prop_assert_eq!(fields, total);
        }
    }
}
