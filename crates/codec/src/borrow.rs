//! Borrowed-decode support: materialize decoded byte fields as refcounted
//! views of the receive buffer instead of owned copies.
//!
//! [`E2apCodec::decode_borrowed`](crate::E2apCodec::decode_borrowed) hands
//! the frame (sliced off the transport read slab) to the decoder — PER
//! carries it in its reader
//! ([`BitReader::borrowing`](crate::per::BitReader::borrowing)), FB beside
//! the table it reads ([`Src`](crate::schema::Src)) — and every
//! byte-valued field goes through [`mk_bytes`] with it: when the decoded
//! slice lies inside the source's allocation — which it does for every
//! contiguously stored field in the PER and FB encodings — the field becomes
//! `source.slice_ref(..)`, pure refcount bookkeeping.  Slices that fall
//! outside fall back to a counted copy, so
//! `flexric_transport_rx_copies_total{site="decode"}` measures exactly the
//! hot-path copies the zero-copy design eliminates.

use bytes::Bytes;

/// Materializes a decoded slice as [`Bytes`]: a refcounted view of the
/// borrow source `src` when `sl` lies within its allocation, otherwise an
/// owned copy.  Copies made *with a source* are the hot-path misses the
/// `rx_copies_total{site="decode"}` counter tracks; a decode without one
/// (`E2apCodec::decode`) is owned by contract and is not counted.
pub(crate) fn mk_bytes(src: Option<&Bytes>, sl: &[u8]) -> Bytes {
    if sl.is_empty() {
        return Bytes::new();
    }
    let inside = |src: &Bytes| {
        let (lo, p) = (src.as_ptr() as usize, sl.as_ptr() as usize);
        p >= lo && p + sl.len() <= lo + src.len()
    };
    match src {
        Some(src) if inside(src) => src.slice_ref(sl),
        Some(_) => {
            crate::obs().rx_copies_decode.inc();
            Bytes::copy_from_slice(sl)
        }
        None => Bytes::copy_from_slice(sl),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_source_copies() {
        let data = Bytes::from_static(b"0123456789");
        let out = mk_bytes(None, &data[2..5]);
        assert_eq!(&out[..], b"234");
        assert_ne!(out.as_ptr(), data[2..5].as_ptr(), "owned copy");
    }

    #[test]
    fn with_source_borrows_in_range() {
        let data = Bytes::from(vec![7u8; 64]);
        let out = mk_bytes(Some(&data), &data[10..30]);
        assert_eq!(out.len(), 20);
        assert_eq!(out.as_ptr(), data[10..30].as_ptr(), "view of the source, not a copy");
    }

    #[test]
    fn with_source_copies_out_of_range() {
        let data = Bytes::from(vec![1u8; 16]);
        let other = [9u8; 8];
        let out = mk_bytes(Some(&data), &other);
        assert_eq!(&out[..], &other);
        assert_ne!(out.as_ptr(), other.as_ptr());
    }

    #[test]
    fn empty_slice_is_free() {
        let data = Bytes::from(vec![0u8; 8]);
        assert!(mk_bytes(Some(&data), &data[3..3]).is_empty());
    }
}
