//! Table and field descriptors, layout computation, and the in-region
//! system catalog.
//!
//! The paper stresses that the system catalog "consists of several
//! database tables that are referenced on each database operation" and
//! that corrupting it "can cause all database operations to fail"
//! (§3.2). We reproduce that by serializing the descriptors into the
//! head of the database region; the client API re-reads and validates
//! them on every call, so a bit flip in the catalog genuinely breaks
//! operations rather than being absorbed by out-of-band Rust state.

use crate::error::DbError;
use crate::layout::{
    align_up, read_le, write_le, CATALOG_HEADER_SIZE, CATALOG_MAGIC, FIELD_DESC_SIZE,
    RECORD_HEADER_SIZE, TABLE_DESC_SIZE,
};

/// Identifier of a table: its position in the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u16);

/// Identifier of a field within a table: its position in the table's
/// field list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(pub u16);

/// Storage width of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldWidth {
    /// One byte.
    U8,
    /// Two bytes, little-endian.
    U16,
    /// Four bytes, little-endian.
    U32,
    /// Eight bytes, little-endian.
    U64,
}

impl FieldWidth {
    /// Width in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            FieldWidth::U8 => 1,
            FieldWidth::U16 => 2,
            FieldWidth::U32 => 4,
            FieldWidth::U64 => 8,
        }
    }

    /// Largest value representable at this width.
    pub const fn max_value(self) -> u64 {
        match self {
            FieldWidth::U8 => u8::MAX as u64,
            FieldWidth::U16 => u16::MAX as u64,
            FieldWidth::U32 => u32::MAX as u64,
            FieldWidth::U64 => u64::MAX,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(FieldWidth::U8),
            2 => Some(FieldWidth::U16),
            4 => Some(FieldWidth::U32),
            8 => Some(FieldWidth::U64),
            _ => None,
        }
    }
}

/// Whether a field holds static configuration or dynamic runtime data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// Constant during operation (system configuration); covered by the
    /// golden checksum.
    Static,
    /// Updated at runtime (e.g. on every incoming call); covered by
    /// range and semantic checks.
    Dynamic,
}

/// The nature of a table, used by prioritized audit triggering: the
/// paper ranks the system catalog as most important "because it is
/// referenced on every database access".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableNature {
    /// Static configuration (all fields static); recovered by reload.
    Config,
    /// Runtime state (records allocated/freed per call).
    Dynamic,
}

/// Definition of one field of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    /// Human-readable name (diagnostics only; not stored in-region).
    pub name: String,
    /// Storage width.
    pub width: FieldWidth,
    /// Static or dynamic.
    pub kind: FieldKind,
    /// Permitted value range, if a rule is known. The paper notes "not
    /// all ranges are specified" — fields with `None` here are exactly
    /// the source of its "escape due to lack of rule" category.
    pub range: Option<(u64, u64)>,
    /// Default value used by range-check recovery ("the field is reset
    /// to its default value, which is also specified in the system
    /// catalog").
    pub default: u64,
    /// If set, this field semantically references a record index in the
    /// given table — a link the referential-integrity audit follows.
    pub link: Option<TableId>,
}

impl FieldDef {
    /// Convenience constructor for a dynamic field without range or
    /// link.
    pub fn dynamic(name: &str, width: FieldWidth) -> Self {
        FieldDef {
            name: name.to_owned(),
            width,
            kind: FieldKind::Dynamic,
            range: None,
            default: 0,
            link: None,
        }
    }

    /// Convenience constructor for a static field with a fixed value.
    pub fn static_value(name: &str, width: FieldWidth, value: u64) -> Self {
        FieldDef {
            name: name.to_owned(),
            width,
            kind: FieldKind::Static,
            range: Some((value, value)),
            default: value,
            link: None,
        }
    }

    /// Adds a range rule (builder style).
    pub fn with_range(mut self, min: u64, max: u64) -> Self {
        self.range = Some((min, max));
        self
    }

    /// Adds a default value (builder style).
    pub fn with_default(mut self, default: u64) -> Self {
        self.default = default;
        self
    }

    /// Marks the field as a semantic link to `table` (builder style).
    pub fn with_link(mut self, table: TableId) -> Self {
        self.link = Some(table);
        self
    }
}

/// Definition of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Human-readable name.
    pub name: String,
    /// Static configuration or dynamic runtime table.
    pub nature: TableNature,
    /// Pre-allocated record slots (fixed for the life of the database).
    pub record_count: u32,
    /// Field list; field ids are positions in this list.
    pub fields: Vec<FieldDef>,
}

impl TableDef {
    /// Creates a table definition.
    pub fn new(name: &str, nature: TableNature, record_count: u32, fields: Vec<FieldDef>) -> Self {
        TableDef { name: name.to_owned(), nature, record_count, fields }
    }
}

/// Computed per-table layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// The source definition.
    pub def: TableDef,
    /// Assigned identifier.
    pub id: TableId,
    /// Byte offset of the table's data region within the database.
    pub offset: usize,
    /// Size of one record including its header.
    pub record_size: usize,
    /// Byte offset of each field inside a record (after the header).
    pub field_offsets: Vec<usize>,
    /// Byte offset of this table's descriptor within the region.
    pub desc_offset: usize,
    /// Byte offset of this table's field-descriptor array.
    pub field_desc_offset: usize,
}

impl TableMeta {
    /// Total bytes occupied by the table's data region.
    pub fn data_len(&self) -> usize {
        self.record_size * self.def.record_count as usize
    }

    /// Byte offset of record `index` within the database region.
    pub fn record_offset(&self, index: u32) -> usize {
        self.offset + self.record_size * index as usize
    }
}

/// The parsed system catalog: schema plus computed layout.
///
/// A `Catalog` is built once from a schema and then serialized into the
/// head of the database region with [`Catalog::write_region`]; the API
/// subsequently trusts only the region copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    catalog_len: usize,
    region_len: usize,
}

impl Catalog {
    /// Builds a catalog from a schema, computing the full region
    /// layout.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::BadSchema`] if the schema is empty, a table
    /// has no fields or no records, a default value lies outside its
    /// declared range or width, or a semantic link points at a table
    /// that does not exist.
    pub fn build(schema: Vec<TableDef>) -> Result<Self, DbError> {
        if schema.is_empty() {
            return Err(DbError::BadSchema("schema has no tables".into()));
        }
        if schema.len() > u16::MAX as usize {
            return Err(DbError::BadSchema("too many tables".into()));
        }
        let table_count = schema.len();
        for (i, t) in schema.iter().enumerate() {
            if t.fields.is_empty() {
                return Err(DbError::BadSchema(format!("table {} has no fields", t.name)));
            }
            if t.record_count == 0 {
                return Err(DbError::BadSchema(format!("table {} has no records", t.name)));
            }
            if t.record_count as u64 > 0x000F_FFFF {
                return Err(DbError::BadSchema(format!(
                    "table {} exceeds the record-index space",
                    t.name
                )));
            }
            for f in &t.fields {
                if f.default > f.width.max_value() {
                    return Err(DbError::BadSchema(format!(
                        "default of {}.{} exceeds field width",
                        t.name, f.name
                    )));
                }
                if let Some((min, max)) = f.range {
                    if min > max {
                        return Err(DbError::BadSchema(format!(
                            "range of {}.{} is inverted",
                            t.name, f.name
                        )));
                    }
                    if max > f.width.max_value() {
                        return Err(DbError::BadSchema(format!(
                            "range of {}.{} exceeds field width",
                            t.name, f.name
                        )));
                    }
                    if f.default < min || f.default > max {
                        return Err(DbError::BadSchema(format!(
                            "default of {}.{} lies outside its range",
                            t.name, f.name
                        )));
                    }
                }
                if let Some(link) = f.link {
                    if link.0 as usize >= table_count {
                        return Err(DbError::BadSchema(format!(
                            "link of {}.{} references unknown table {}",
                            t.name, f.name, link.0
                        )));
                    }
                }
                // The in-region descriptor stores range metadata as
                // 32-bit values.
                if f.width == FieldWidth::U64 && f.range.is_some() {
                    return Err(DbError::BadSchema(format!(
                        "{}.{}: 64-bit fields cannot carry range rules",
                        t.name, f.name
                    )));
                }
                if f.default > u32::MAX as u64 {
                    return Err(DbError::BadSchema(format!(
                        "default of {}.{} exceeds the catalog's 32-bit metadata",
                        t.name, f.name
                    )));
                }
                if i == usize::MAX {
                    unreachable!();
                }
            }
        }

        // Descriptor area: header, table descriptors, field descriptors.
        let mut field_desc_cursor = CATALOG_HEADER_SIZE + table_count * TABLE_DESC_SIZE;
        let mut metas = Vec::with_capacity(table_count);
        for (i, def) in schema.iter().enumerate() {
            let field_desc_offset = field_desc_cursor;
            field_desc_cursor += def.fields.len() * FIELD_DESC_SIZE;

            // Record layout: header, then fields packed with natural
            // alignment.
            let mut field_offsets = Vec::with_capacity(def.fields.len());
            let mut cursor = RECORD_HEADER_SIZE;
            for f in &def.fields {
                cursor = align_up(cursor, f.width.bytes());
                field_offsets.push(cursor);
                cursor += f.width.bytes();
            }
            let record_size = align_up(cursor, 4);

            metas.push(TableMeta {
                def: def.clone(),
                id: TableId(i as u16),
                offset: 0, // fixed up below
                record_size,
                field_offsets,
                desc_offset: CATALOG_HEADER_SIZE + i * TABLE_DESC_SIZE,
                field_desc_offset,
            });
        }

        let catalog_len = align_up(field_desc_cursor, 8);
        let mut data_cursor = catalog_len;
        for meta in &mut metas {
            meta.offset = data_cursor;
            data_cursor += align_up(meta.data_len(), 8);
        }

        Ok(Catalog { tables: metas, catalog_len, region_len: data_cursor })
    }

    /// Total size of the database region.
    pub fn region_len(&self) -> usize {
        self.region_len
    }

    /// Size of the descriptor (catalog) area at the head of the region.
    pub fn catalog_len(&self) -> usize {
        self.catalog_len
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Looks up the computed metadata for a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] for an id outside the schema.
    pub fn table(&self, id: TableId) -> Result<&TableMeta, DbError> {
        self.tables.get(id.0 as usize).ok_or(DbError::UnknownTable(id))
    }

    /// Looks up a field definition.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::UnknownField`].
    pub fn field(&self, table: TableId, field: FieldId) -> Result<&FieldDef, DbError> {
        let meta = self.table(table)?;
        meta.def.fields.get(field.0 as usize).ok_or(DbError::UnknownField(table, field))
    }

    /// Iterates over all table metadata in id order, which is also
    /// ascending `offset` order.
    pub fn tables(&self) -> std::slice::Iter<'_, TableMeta> {
        self.tables.iter()
    }

    /// Finds a table id by name.
    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.tables.iter().find(|m| m.def.name == name).map(|m| m.id)
    }

    /// Serializes the catalog into the head of `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is smaller than [`Catalog::region_len`]; the
    /// database constructor always sizes it correctly.
    pub fn write_region(&self, region: &mut [u8]) {
        assert!(region.len() >= self.region_len, "region too small for catalog");
        write_le(&mut region[0..], 4, CATALOG_MAGIC as u64);
        write_le(&mut region[4..], 4, self.tables.len() as u64);
        write_le(&mut region[8..], 4, self.region_len as u64);
        let total_fields: usize = self.tables.iter().map(|t| t.def.fields.len()).sum();
        write_le(&mut region[12..], 4, total_fields as u64);

        for meta in &self.tables {
            let d = meta.desc_offset;
            write_le(&mut region[d..], 2, meta.id.0 as u64);
            region[d + 2] = match meta.def.nature {
                TableNature::Config => 0,
                TableNature::Dynamic => 1,
            };
            region[d + 3] = 0;
            write_le(&mut region[d + 4..], 4, meta.offset as u64);
            write_le(&mut region[d + 8..], 4, meta.record_size as u64);
            write_le(&mut region[d + 12..], 4, meta.def.record_count as u64);
            write_le(&mut region[d + 16..], 4, meta.def.fields.len() as u64);
            write_le(&mut region[d + 20..], 4, meta.field_desc_offset as u64);
            // bytes d+24..d+32 reserved (zero)

            for (fi, f) in meta.def.fields.iter().enumerate() {
                let o = meta.field_desc_offset + fi * FIELD_DESC_SIZE;
                write_le(&mut region[o..], 2, fi as u64);
                region[o + 2] = f.width.bytes() as u8;
                region[o + 3] = match f.kind {
                    FieldKind::Static => 0,
                    FieldKind::Dynamic => 1,
                };
                region[o + 4] = f.range.is_some() as u8;
                region[o + 5] = f.link.is_some() as u8;
                write_le(&mut region[o + 6..], 2, f.link.map_or(0, |t| t.0) as u64);
                let (min, max) = f.range.unwrap_or((0, f.width.max_value().min(u32::MAX as u64)));
                write_le(&mut region[o + 8..], 4, min);
                write_le(&mut region[o + 12..], 4, max);
                write_le(&mut region[o + 16..], 4, f.default);
                write_le(&mut region[o + 20..], 4, meta.field_offsets[fi] as u64);
            }
        }
    }

    /// Validates the in-region catalog copy and returns the region-held
    /// entry for `table` — offset, record size and count as stored in
    /// the (possibly corrupted) bytes. This is what the API consults on
    /// every operation.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::CatalogCorrupt`] if the magic number, table
    /// count, or the entry's identity/bounds fail validation, and
    /// [`DbError::UnknownTable`] if `table` exceeds the (validated)
    /// table count.
    pub fn read_region_entry(region: &[u8], table: TableId) -> Result<RegionTableEntry, DbError> {
        if region.len() < CATALOG_HEADER_SIZE {
            return Err(DbError::CatalogCorrupt { reason: "region shorter than header" });
        }
        if read_le(&region[0..], 4) as u32 != CATALOG_MAGIC {
            return Err(DbError::CatalogCorrupt { reason: "bad magic number" });
        }
        let table_count = read_le(&region[4..], 4) as usize;
        let region_size = read_le(&region[8..], 4) as usize;
        if region_size != region.len() {
            return Err(DbError::CatalogCorrupt { reason: "stored size disagrees with region" });
        }
        if CATALOG_HEADER_SIZE + table_count * TABLE_DESC_SIZE > region.len() {
            return Err(DbError::CatalogCorrupt { reason: "descriptor area exceeds region" });
        }
        if table.0 as usize >= table_count {
            return Err(DbError::UnknownTable(table));
        }
        let d = CATALOG_HEADER_SIZE + table.0 as usize * TABLE_DESC_SIZE;
        let stored_id = read_le(&region[d..], 2) as u16;
        if stored_id != table.0 {
            return Err(DbError::CatalogCorrupt { reason: "table descriptor id mismatch" });
        }
        let entry = RegionTableEntry {
            offset: read_le(&region[d + 4..], 4) as usize,
            record_size: read_le(&region[d + 8..], 4) as usize,
            record_count: read_le(&region[d + 12..], 4) as u32,
            field_count: read_le(&region[d + 16..], 4) as usize,
            field_desc_offset: read_le(&region[d + 20..], 4) as usize,
        };
        if entry.record_size == 0
            || entry.record_size < RECORD_HEADER_SIZE
            || entry
                .offset
                .checked_add(entry.record_size * entry.record_count as usize)
                .is_none_or(|end| end > region.len())
        {
            return Err(DbError::CatalogCorrupt { reason: "table extent exceeds region" });
        }
        if entry
            .field_desc_offset
            .checked_add(entry.field_count * FIELD_DESC_SIZE)
            .is_none_or(|end| end > region.len())
        {
            return Err(DbError::CatalogCorrupt { reason: "field descriptors exceed region" });
        }
        Ok(entry)
    }

    /// Reads the in-region field descriptor `field` of a validated
    /// table entry.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownField`] if `field` exceeds the entry's
    /// field count and [`DbError::CatalogCorrupt`] if the descriptor
    /// fails validation (impossible width, field extent outside the
    /// record).
    pub fn read_region_field(
        region: &[u8],
        table: TableId,
        entry: &RegionTableEntry,
        field: FieldId,
    ) -> Result<RegionFieldEntry, DbError> {
        if field.0 as usize >= entry.field_count {
            return Err(DbError::UnknownField(table, field));
        }
        let o = entry.field_desc_offset + field.0 as usize * FIELD_DESC_SIZE;
        if o + FIELD_DESC_SIZE > region.len() {
            return Err(DbError::CatalogCorrupt { reason: "field descriptor exceeds region" });
        }
        let width = FieldWidth::from_code(region[o + 2])
            .ok_or(DbError::CatalogCorrupt { reason: "impossible field width" })?;
        let offset_in_record = read_le(&region[o + 20..], 4) as usize;
        if offset_in_record + width.bytes() > entry.record_size {
            return Err(DbError::CatalogCorrupt { reason: "field extent outside record" });
        }
        Ok(RegionFieldEntry {
            width,
            kind: if region[o + 3] == 0 { FieldKind::Static } else { FieldKind::Dynamic },
            has_range: region[o + 4] != 0,
            min: read_le(&region[o + 8..], 4),
            max: read_le(&region[o + 12..], 4),
            default: read_le(&region[o + 16..], 4),
            offset_in_record,
            link: (region[o + 5] != 0).then(|| TableId(read_le(&region[o + 6..], 2) as u16)),
        })
    }
}

/// A table descriptor as read back from the (possibly corrupted)
/// region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionTableEntry {
    /// Data-region offset.
    pub offset: usize,
    /// Record size in bytes.
    pub record_size: usize,
    /// Number of record slots.
    pub record_count: u32,
    /// Number of fields.
    pub field_count: usize,
    /// Offset of the field-descriptor array.
    pub field_desc_offset: usize,
}

/// A field descriptor as read back from the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionFieldEntry {
    /// Storage width.
    pub width: FieldWidth,
    /// Static or dynamic.
    pub kind: FieldKind,
    /// Whether a range rule is recorded.
    pub has_range: bool,
    /// Range minimum (meaningful when `has_range`).
    pub min: u64,
    /// Range maximum (meaningful when `has_range`).
    pub max: u64,
    /// Default value for recovery.
    pub default: u64,
    /// Byte offset of the field inside a record.
    pub offset_in_record: usize,
    /// Semantic link target, if any.
    pub link: Option<TableId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_schema() -> Vec<TableDef> {
        vec![
            TableDef::new(
                "config",
                TableNature::Config,
                2,
                vec![
                    FieldDef::static_value("n_cpus", FieldWidth::U8, 4),
                    FieldDef::static_value("max_calls", FieldWidth::U32, 1000),
                ],
            ),
            TableDef::new(
                "conn",
                TableNature::Dynamic,
                8,
                vec![
                    FieldDef::dynamic("caller", FieldWidth::U32).with_range(0, 99_999),
                    FieldDef::dynamic("channel", FieldWidth::U16).with_link(TableId(0)),
                    FieldDef::dynamic("unruled", FieldWidth::U64),
                ],
            ),
        ]
    }

    #[test]
    fn layout_is_packed_and_aligned() {
        let cat = Catalog::build(small_schema()).unwrap();
        let conn = cat.table(TableId(1)).unwrap();
        // header 12, u32 at 12, u16 at 16, u64 at 24 -> record 32
        assert_eq!(conn.field_offsets, vec![12, 16, 24]);
        assert_eq!(conn.record_size, 32);
        let config = cat.table(TableId(0)).unwrap();
        // header 12, u8 at 12, u32 aligned to 16 -> record 20
        assert_eq!(config.field_offsets, vec![12, 16]);
        assert_eq!(config.record_size, 20);
        assert!(cat.region_len() >= cat.catalog_len() + config.data_len() + conn.data_len());
        assert_eq!(config.offset, cat.catalog_len());
    }

    #[test]
    fn region_round_trip() {
        let cat = Catalog::build(small_schema()).unwrap();
        let mut region = vec![0u8; cat.region_len()];
        cat.write_region(&mut region);

        let entry = Catalog::read_region_entry(&region, TableId(1)).unwrap();
        let meta = cat.table(TableId(1)).unwrap();
        assert_eq!(entry.offset, meta.offset);
        assert_eq!(entry.record_size, meta.record_size);
        assert_eq!(entry.record_count, 8);
        assert_eq!(entry.field_count, 3);

        let f0 = Catalog::read_region_field(&region, TableId(1), &entry, FieldId(0)).unwrap();
        assert_eq!(f0.width, FieldWidth::U32);
        assert!(f0.has_range);
        assert_eq!((f0.min, f0.max), (0, 99_999));
        assert_eq!(f0.offset_in_record, 12);
        assert_eq!(f0.link, None);

        let f1 = Catalog::read_region_field(&region, TableId(1), &entry, FieldId(1)).unwrap();
        assert_eq!(f1.link, Some(TableId(0)));

        let f2 = Catalog::read_region_field(&region, TableId(1), &entry, FieldId(2)).unwrap();
        assert!(!f2.has_range);
        assert_eq!(f2.kind, FieldKind::Dynamic);
    }

    #[test]
    fn corrupt_magic_fails_every_operation() {
        let cat = Catalog::build(small_schema()).unwrap();
        let mut region = vec![0u8; cat.region_len()];
        cat.write_region(&mut region);
        region[0] ^= 0x01;
        let err = Catalog::read_region_entry(&region, TableId(0)).unwrap_err();
        assert!(matches!(err, DbError::CatalogCorrupt { .. }));
    }

    #[test]
    fn corrupt_table_extent_detected() {
        let cat = Catalog::build(small_schema()).unwrap();
        let mut region = vec![0u8; cat.region_len()];
        cat.write_region(&mut region);
        let meta = cat.table(TableId(1)).unwrap();
        // Blow up the stored record size.
        let d = meta.desc_offset;
        write_le(&mut region[d + 8..], 4, u32::MAX as u64);
        let err = Catalog::read_region_entry(&region, TableId(1)).unwrap_err();
        assert_eq!(err, DbError::CatalogCorrupt { reason: "table extent exceeds region" });
    }

    #[test]
    fn unknown_table_and_field() {
        let cat = Catalog::build(small_schema()).unwrap();
        let mut region = vec![0u8; cat.region_len()];
        cat.write_region(&mut region);
        assert_eq!(
            Catalog::read_region_entry(&region, TableId(9)).unwrap_err(),
            DbError::UnknownTable(TableId(9))
        );
        let entry = Catalog::read_region_entry(&region, TableId(0)).unwrap();
        assert_eq!(
            Catalog::read_region_field(&region, TableId(0), &entry, FieldId(7)).unwrap_err(),
            DbError::UnknownField(TableId(0), FieldId(7))
        );
        assert!(cat.field(TableId(0), FieldId(1)).is_ok());
        assert!(cat.field(TableId(0), FieldId(2)).is_err());
    }

    #[test]
    fn schema_validation_rejects_bad_inputs() {
        assert!(matches!(Catalog::build(vec![]), Err(DbError::BadSchema(_))));

        let no_fields = vec![TableDef::new("t", TableNature::Dynamic, 1, vec![])];
        assert!(matches!(Catalog::build(no_fields), Err(DbError::BadSchema(_))));

        let no_records = vec![TableDef::new(
            "t",
            TableNature::Dynamic,
            0,
            vec![FieldDef::dynamic("f", FieldWidth::U8)],
        )];
        assert!(matches!(Catalog::build(no_records), Err(DbError::BadSchema(_))));

        let bad_default = vec![TableDef::new(
            "t",
            TableNature::Dynamic,
            1,
            vec![FieldDef::dynamic("f", FieldWidth::U8).with_default(300)],
        )];
        assert!(matches!(Catalog::build(bad_default), Err(DbError::BadSchema(_))));

        let inverted_range = vec![TableDef::new(
            "t",
            TableNature::Dynamic,
            1,
            vec![FieldDef::dynamic("f", FieldWidth::U32).with_range(10, 5).with_default(10)],
        )];
        assert!(matches!(Catalog::build(inverted_range), Err(DbError::BadSchema(_))));

        let default_outside_range = vec![TableDef::new(
            "t",
            TableNature::Dynamic,
            1,
            vec![FieldDef::dynamic("f", FieldWidth::U32).with_range(5, 10).with_default(0)],
        )];
        assert!(matches!(Catalog::build(default_outside_range), Err(DbError::BadSchema(_))));

        let dangling_link = vec![TableDef::new(
            "t",
            TableNature::Dynamic,
            1,
            vec![FieldDef::dynamic("f", FieldWidth::U16).with_link(TableId(9))],
        )];
        assert!(matches!(Catalog::build(dangling_link), Err(DbError::BadSchema(_))));
    }

    #[test]
    fn table_by_name() {
        let cat = Catalog::build(small_schema()).unwrap();
        assert_eq!(cat.table_by_name("conn"), Some(TableId(1)));
        assert_eq!(cat.table_by_name("missing"), None);
    }
}
