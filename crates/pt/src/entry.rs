//! Page-table entries.
//!
//! A [`Pte`] is one 64-bit word in the x86-64 layout, so the simulated
//! page tables are as dense in host memory as the tables they model: a
//! 512-entry table is 4 KiB.  [`PteFlags`] is the unpacked view of the
//! flag bits the simulator models.

use crate::addr::PageSize;
use mitosis_mem::FrameId;
use std::fmt;

/// Software view of the architectural PTE flag bits the simulator models.
///
/// The layout follows x86-64: bit 0 present, bit 1 writable, bit 2 user,
/// bit 5 accessed, bit 6 dirty, bit 7 page-size (PS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PteFlags {
    /// Entry is valid.
    pub present: bool,
    /// Page may be written.
    pub writable: bool,
    /// Page is user-accessible.
    pub user: bool,
    /// Set by the hardware walker when the page is referenced.
    pub accessed: bool,
    /// Set by the hardware walker when the page is written.
    pub dirty: bool,
    /// Entry maps a large page directly (PS bit; only meaningful at L2/L3).
    pub huge: bool,
}

impl PteFlags {
    /// Flags for a user-space, writable data mapping.
    pub fn user_data() -> Self {
        PteFlags {
            present: true,
            writable: true,
            user: true,
            accessed: false,
            dirty: false,
            huge: false,
        }
    }

    /// Flags for a read-only user mapping (e.g. after `mprotect(PROT_READ)`).
    pub fn user_readonly() -> Self {
        PteFlags {
            writable: false,
            ..PteFlags::user_data()
        }
    }

    /// Flags for a non-leaf entry pointing to a lower-level page-table page.
    pub fn table_pointer() -> Self {
        PteFlags {
            present: true,
            writable: true,
            user: true,
            accessed: false,
            dirty: false,
            huge: false,
        }
    }

    /// Returns these flags with the huge (PS) bit set.
    pub fn huge_page(mut self) -> Self {
        self.huge = true;
        self
    }
}

/// Present bit (x86-64 bit 0).
const PRESENT: u64 = 1 << 0;
/// Writable bit (bit 1).
const WRITABLE: u64 = 1 << 1;
/// User bit (bit 2).
const USER: u64 = 1 << 2;
/// Accessed bit (bit 5).
const ACCESSED: u64 = 1 << 5;
/// Dirty bit (bit 6).
const DIRTY: u64 = 1 << 6;
/// Page-size bit (bit 7).
const HUGE: u64 = 1 << 7;
/// The flag bits [`PteFlags`] models.
const FLAGS: u64 = PRESENT | WRITABLE | USER | ACCESSED | DIRTY | HUGE;
/// Software-available bit 9: the entry carries a frame.  Only the
/// in-memory word uses it; [`Pte::to_bits`] clears it.
const CARRIED: u64 = 1 << 9;
/// Position of the physical frame number in the entry.
const PFN_SHIFT: u32 = 12;
/// Mask of the architectural PFN field, bits 12–51.
const PFN_MASK: u64 = Pte::MAX_PFN << PFN_SHIFT;

impl PteFlags {
    fn to_bits(self) -> u64 {
        (u64::from(self.present) * PRESENT)
            | (u64::from(self.writable) * WRITABLE)
            | (u64::from(self.user) * USER)
            | (u64::from(self.accessed) * ACCESSED)
            | (u64::from(self.dirty) * DIRTY)
            | (u64::from(self.huge) * HUGE)
    }

    fn from_bits(bits: u64) -> Self {
        PteFlags {
            present: bits & PRESENT != 0,
            writable: bits & WRITABLE != 0,
            user: bits & USER != 0,
            accessed: bits & ACCESSED != 0,
            dirty: bits & DIRTY != 0,
            huge: bits & HUGE != 0,
        }
    }
}

/// A single page-table entry: flags plus the physical frame it refers to.
///
/// A non-present entry carries no frame.  For non-leaf entries the frame is a
/// page-table page; for leaf entries (L1, or L2/L3 with the huge bit) it is
/// the first frame of the mapped data page.
///
/// The entry is stored as one 64-bit word in the x86-64 layout — the
/// [`PteFlags`] bits in bits 0–7 and the frame number in bits 12–51 — plus
/// one software-available bit (bit 9) recording whether a frame is carried,
/// so a table of 512 entries occupies exactly 4 KiB of host memory, like
/// the page it simulates.  Equality and hashing compare flags and frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte(u64);

impl Pte {
    /// The all-zero, non-present entry.
    pub const EMPTY: Pte = Pte(0);

    /// The largest frame number an entry can refer to: the architectural
    /// PFN field is bits 12–51, i.e. 40 bits.
    pub const MAX_PFN: u64 = (1 << 40) - 1;

    /// The carried-frame bit and PFN field for `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame number does not fit the 40-bit PFN field; it
    /// would otherwise alias a lower frame.
    fn frame_bits(frame: FrameId) -> u64 {
        assert!(
            frame.pfn() <= Pte::MAX_PFN,
            "{frame} does not fit the PFN field of a page-table entry (bits 12-51)"
        );
        CARRIED | (frame.pfn() << PFN_SHIFT)
    }

    /// Creates a present entry referring to `frame` with the given flags.
    ///
    /// # Panics
    ///
    /// Panics if `flags.present` is false; use [`Pte::EMPTY`] for empty
    /// entries.  Panics if the frame number exceeds [`Pte::MAX_PFN`].
    pub fn new(frame: FrameId, flags: PteFlags) -> Self {
        assert!(flags.present, "present flag required for a mapped entry");
        Pte(flags.to_bits() | Pte::frame_bits(frame))
    }

    /// Creates the leaf entry mapping `frame` as a page of `size`: `flags`
    /// with the large-page bit set for anything but a 4 KiB page.
    pub fn leaf(frame: FrameId, size: PageSize, flags: PteFlags) -> Self {
        let huge = size != PageSize::Base4K;
        Pte::new(frame, PteFlags { huge, ..flags })
    }

    /// Returns `true` if the entry is present (valid).
    #[inline]
    pub fn is_present(self) -> bool {
        self.0 & PRESENT != 0
    }

    /// Returns `true` if the entry permits stores (writable bit set).
    #[inline]
    pub(crate) fn is_writable(self) -> bool {
        self.0 & WRITABLE != 0
    }

    /// Returns `true` if this is a large-page leaf entry (PS bit set).
    #[inline]
    pub fn is_huge(self) -> bool {
        self.0 & HUGE != 0
    }

    /// The frame the entry points to, if present.
    #[inline]
    pub fn frame(self) -> Option<FrameId> {
        (self.0 & CARRIED != 0).then(|| FrameId::new((self.0 & PFN_MASK) >> PFN_SHIFT))
    }

    /// The entry's flags.
    #[inline]
    pub fn flags(self) -> PteFlags {
        PteFlags::from_bits(self.0)
    }

    /// Returns a copy of the entry with different flags (same frame).
    pub fn with_flags(self, flags: PteFlags) -> Pte {
        Pte((self.0 & !FLAGS) | flags.to_bits())
    }

    /// Returns a copy of the entry with its protection taken from `flags`,
    /// keeping the frame, the large-page bit and the accessed/dirty bits
    /// (`mprotect` on a mapped page).
    pub fn with_protection(self, flags: PteFlags) -> Pte {
        const KEPT: u64 = HUGE | ACCESSED | DIRTY;
        Pte((self.0 & !(FLAGS & !KEPT)) | (flags.to_bits() & !KEPT))
    }

    /// Returns a copy of the entry pointing at a different frame (same
    /// flags); used when propagating non-leaf entries to replicas, where the
    /// child pointer must be redirected to the same-socket child replica.
    ///
    /// # Panics
    ///
    /// Panics if the frame number exceeds [`Pte::MAX_PFN`].
    pub fn with_frame(self, frame: FrameId) -> Pte {
        Pte((self.0 & !PFN_MASK) | Pte::frame_bits(frame))
    }

    /// Returns a copy with the accessed bit set.
    pub fn with_accessed(self) -> Pte {
        Pte(self.0 | ACCESSED)
    }

    /// Returns a copy with the dirty bit set.
    pub fn with_dirty(self) -> Pte {
        Pte(self.0 | DIRTY)
    }

    /// Returns a copy with accessed and dirty bits cleared.
    pub fn with_ad_cleared(self) -> Pte {
        Pte(self.0 & !(ACCESSED | DIRTY))
    }

    /// The in-memory word, carried-frame bit included: what the table
    /// arena stores.
    #[inline]
    pub(crate) fn to_word(self) -> u64 {
        self.0
    }

    /// The entry an arena word holds (the inverse of [`Pte::to_word`]).
    #[inline]
    pub(crate) fn from_word(word: u64) -> Self {
        Pte(word)
    }

    /// Encodes the entry into its 64-bit architectural representation: the
    /// stored word without the software carried-frame bit.
    pub fn to_bits(self) -> u64 {
        self.0 & !CARRIED
    }

    /// Decodes an entry from its 64-bit architectural representation.
    ///
    /// A word without the present bit decodes to [`Pte::EMPTY`].  Bits the
    /// simulator does not model (3, 4, 8–11 and 52–63) are ignored, so the
    /// frame is read from the PFN field, bits 12–51, alone.
    pub fn from_bits(bits: u64) -> Self {
        if bits & PRESENT == 0 {
            return Pte::EMPTY;
        }
        Pte((bits & (FLAGS | PFN_MASK)) | CARRIED)
    }
}

impl fmt::Debug for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pte")
            .field("flags", &self.flags())
            .field("frame", &self.frame())
            .finish()
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_present() {
            return write!(f, "<empty>");
        }
        let flags = self.flags();
        write!(
            f,
            "{} [{}{}{}{}{}]",
            self.frame().expect("present entry has a frame"),
            if flags.writable { "W" } else { "-" },
            if flags.user { "U" } else { "-" },
            if flags.accessed { "A" } else { "-" },
            if flags.dirty { "D" } else { "-" },
            if flags.huge { "H" } else { "-" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_entry_is_not_present() {
        assert!(!Pte::EMPTY.is_present());
        assert_eq!(Pte::EMPTY.frame(), None);
        assert_eq!(Pte::EMPTY.to_bits(), 0);
        assert_eq!(Pte::from_bits(0), Pte::EMPTY);
    }

    #[test]
    fn bit_encoding_roundtrips() {
        let pte = Pte::new(FrameId::new(0x1234), PteFlags::user_data().huge_page())
            .with_accessed()
            .with_dirty();
        let decoded = Pte::from_bits(pte.to_bits());
        assert_eq!(decoded, pte);
        assert!(decoded.is_huge());
        assert_eq!(decoded.frame(), Some(FrameId::new(0x1234)));
    }

    #[test]
    fn flag_manipulation() {
        let pte = Pte::new(FrameId::new(7), PteFlags::user_data());
        assert!(!pte.flags().accessed);
        let touched = pte.with_accessed().with_dirty();
        assert!(touched.flags().accessed && touched.flags().dirty);
        let cleared = touched.with_ad_cleared();
        assert!(!cleared.flags().accessed && !cleared.flags().dirty);
        // Frame is preserved through flag changes.
        assert_eq!(cleared.frame(), Some(FrameId::new(7)));
    }

    #[test]
    fn with_frame_redirects_pointer_only() {
        let pte = Pte::new(FrameId::new(10), PteFlags::table_pointer());
        let redirected = pte.with_frame(FrameId::new(20));
        assert_eq!(redirected.frame(), Some(FrameId::new(20)));
        assert_eq!(redirected.flags(), pte.flags());
    }

    #[test]
    fn readonly_flags_drop_writable() {
        assert!(!PteFlags::user_readonly().writable);
        assert!(PteFlags::user_readonly().present);
    }

    #[test]
    #[should_panic(expected = "present flag required")]
    fn non_present_mapped_entry_panics() {
        let _ = Pte::new(FrameId::new(1), PteFlags::default());
    }

    #[test]
    fn entries_are_one_word() {
        assert_eq!(std::mem::size_of::<Pte>(), 8);
        assert_eq!(std::mem::size_of::<[Pte; 512]>(), 4096);
    }

    #[test]
    fn largest_pfn_roundtrips_and_high_bits_are_ignored() {
        let pte = Pte::new(FrameId::new(Pte::MAX_PFN), PteFlags::user_data());
        assert_eq!(pte.frame(), Some(FrameId::new(Pte::MAX_PFN)));
        assert_eq!(pte.to_bits() >> 52, 0);
        assert_eq!(Pte::from_bits(pte.to_bits()), pte);
        // NX (bit 63) and the other bits outside the modelled fields do not
        // leak into the frame or the flags.
        let noisy = pte.to_bits() | (1 << 63) | (1 << 52) | 0b1_0001_1000;
        assert_eq!(Pte::from_bits(noisy), pte);
    }

    #[test]
    #[should_panic(expected = "does not fit the PFN field")]
    fn oversized_pfn_panics_in_new() {
        let _ = Pte::new(FrameId::new(Pte::MAX_PFN + 1), PteFlags::user_data());
    }

    #[test]
    #[should_panic(expected = "does not fit the PFN field")]
    fn oversized_pfn_panics_in_with_frame() {
        let pte = Pte::new(FrameId::new(1), PteFlags::table_pointer());
        let _ = pte.with_frame(FrameId::new(1 << 52));
    }

    #[test]
    fn frame_and_flags_are_independent() {
        // A non-present entry may still carry a frame and a present one
        // none: the carried-frame bit, not the present bit, decides.
        let unmapped =
            Pte::new(FrameId::new(0), PteFlags::user_data()).with_flags(PteFlags::default());
        assert!(!unmapped.is_present());
        assert_eq!(unmapped.frame(), Some(FrameId::new(0)));
        assert_ne!(unmapped, Pte::EMPTY);
        let frameless = Pte::EMPTY.with_flags(PteFlags::user_data());
        assert!(frameless.is_present());
        assert_eq!(frameless.frame(), None);
        assert_eq!(frameless.to_bits(), 0b111);
    }

    #[test]
    fn display_shows_flags() {
        let pte = Pte::new(FrameId::new(1), PteFlags::user_data()).with_dirty();
        let s = pte.to_string();
        assert!(s.contains("W"));
        assert!(s.contains("D"));
        assert_eq!(Pte::EMPTY.to_string(), "<empty>");
    }
}
