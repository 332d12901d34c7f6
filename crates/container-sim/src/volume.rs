//! Volumes: per-container bind-mounted scratch directories.
//!
//! §IV-B ("Used Container Cleanup"): to keep reused containers clean, HotC
//! "assigns volume, which persists data generated and used by applications,
//! to each container when they are created. Each live container has its
//! unique directory". Cleanup is two steps: delete all files in the old
//! volume, then mount a fresh volume; volumes are deleted when the container
//! stops for good "to avoid resource waste and zombie files".
//!
//! Each container record owns its volume, so the volume is created with the
//! container and dropped with it: a zombie volume cannot be represented. A
//! volume is a file count + byte total — enough to charge realistic wipe
//! costs.

use crate::costmodel;
use crate::hardware::HardwareProfile;
use simclock::SimDuration;

/// State of one container's volume: what the application wrote since the
/// last wipe. A fresh volume is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Volume {
    /// Number of files the application has written.
    pub(crate) files: u64,
    /// Total bytes written.
    pub(crate) bytes: u64,
}

impl Volume {
    /// Records application writes.
    pub(crate) fn write(&mut self, files: u64, bytes: u64) {
        self.files += files;
        self.bytes += bytes;
    }

    /// Algorithm 2's cleanup: wipes all files in the volume and remounts it
    /// fresh. Returns the virtual cost (per-file wipe + fixed remount).
    pub(crate) fn wipe_and_remount(&mut self, hw: &HardwareProfile) -> SimDuration {
        let cost = costmodel::VOLUME_WIPE_PER_FILE * self.files + costmodel::VOLUME_REMOUNT;
        *self = Volume::default();
        hw.control(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareProfile {
        HardwareProfile::server()
    }

    #[test]
    fn write_wipe_cycle() {
        let mut vol = Volume::default();
        vol.write(100, 1 << 20);
        vol.write(1, 1);
        assert_eq!((vol.files, vol.bytes), (101, (1 << 20) + 1));

        let wipe = vol.wipe_and_remount(&hw());
        assert!(!wipe.is_zero());
        assert_eq!(vol, Volume::default());
        // An empty volume still pays the fixed remount.
        assert_eq!(vol.wipe_and_remount(&hw()), costmodel::VOLUME_REMOUNT);
    }

    #[test]
    fn wipe_cost_grows_with_files() {
        let (mut a, mut b) = (Volume::default(), Volume::default());
        a.write(10, 1024);
        b.write(10_000, 1024);
        let ca = a.wipe_and_remount(&hw());
        let cb = b.wipe_and_remount(&hw());
        assert!(cb > ca);
        assert_eq!(
            cb - ca,
            costmodel::VOLUME_WIPE_PER_FILE * 9_990,
            "the server scales control costs by 1.0"
        );
    }

    #[test]
    fn wipe_cost_scales_with_the_control_plane() {
        let pi = HardwareProfile::raspberry_pi3();
        let mut vol = Volume::default();
        vol.write(500, 0);
        let base = costmodel::VOLUME_WIPE_PER_FILE * 500 + costmodel::VOLUME_REMOUNT;
        assert_eq!(vol.wipe_and_remount(&pi), pi.control(base));
    }
}
