//! Volumes: per-container bind-mounted scratch directories.
//!
//! §IV-B ("Used Container Cleanup"): to keep reused containers clean, HotC
//! "assigns volume, which persists data generated and used by applications,
//! to each container when they are created. Each live container has its
//! unique directory". Cleanup is two steps: delete all files in the old
//! volume, then mount a fresh volume; volumes are deleted when the container
//! stops for good "to avoid resource waste and zombie files".
//!
//! The store models a volume as a file count + byte total — enough to charge
//! realistic wipe costs and to assert the no-zombie-volume invariant.

use crate::costmodel;
use crate::hardware::HardwareProfile;
use simclock::SimDuration;
use stdshim::FastMap;

/// Identifier of a volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VolumeId(pub u64);

impl std::fmt::Display for VolumeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vol-{}", self.0)
    }
}

/// State of one volume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Volume {
    /// Number of files the application has written.
    pub files: u64,
    /// Total bytes written.
    pub bytes: u64,
    /// Whether the volume is currently mounted into a container.
    pub mounted: bool,
}

/// The host's volume manager.
#[derive(Debug, Default, Clone)]
pub struct VolumeStore {
    /// Live volumes, keyed by store-issued ids, so a [`FastMap`]: one
    /// insert per cold start and one removal per teardown, never iterated.
    volumes: FastMap<VolumeId, Volume>,
    next_id: u64,
}

/// Errors from volume operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeError {
    /// The referenced volume does not exist.
    NotFound(VolumeId),
    /// Attempted to delete a volume that is still mounted.
    StillMounted(VolumeId),
}

impl std::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeError::NotFound(id) => write!(f, "volume {id} not found"),
            VolumeError::StillMounted(id) => write!(f, "volume {id} is still mounted"),
        }
    }
}

impl std::error::Error for VolumeError {}

impl VolumeStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates and mounts a fresh volume; returns its id. The engine charges
    /// the mount as part of the cold start (`costmodel::VOLUME_MOUNT`).
    pub(crate) fn create_mounted(&mut self) -> VolumeId {
        let id = VolumeId(self.next_id);
        self.next_id += 1;
        self.volumes.insert(
            id,
            Volume {
                files: 0,
                bytes: 0,
                mounted: true,
            },
        );
        id
    }

    /// Records application writes into a mounted volume.
    pub fn write(&mut self, id: VolumeId, files: u64, bytes: u64) -> Result<(), VolumeError> {
        let vol = self.volumes.get_mut(&id).ok_or(VolumeError::NotFound(id))?;
        vol.files += files;
        vol.bytes += bytes;
        Ok(())
    }

    /// Algorithm 2's cleanup: wipes all files in the volume and remounts it
    /// fresh. Returns the virtual cost (per-file wipe + fixed remount).
    pub(crate) fn wipe_and_remount(
        &mut self,
        id: VolumeId,
        hw: &HardwareProfile,
    ) -> Result<SimDuration, VolumeError> {
        let vol = self.volumes.get_mut(&id).ok_or(VolumeError::NotFound(id))?;
        let cost = costmodel::VOLUME_WIPE_PER_FILE * vol.files + costmodel::VOLUME_REMOUNT;
        vol.files = 0;
        vol.bytes = 0;
        vol.mounted = true;
        Ok(hw.control(cost))
    }

    /// Unmounts a volume (container stopping) without deleting it.
    pub(crate) fn unmount(&mut self, id: VolumeId) -> Result<(), VolumeError> {
        let vol = self.volumes.get_mut(&id).ok_or(VolumeError::NotFound(id))?;
        vol.mounted = false;
        Ok(())
    }

    /// Deletes an unmounted volume ("the corresponding volumes are deleted
    /// once the containers stop execution").
    pub(crate) fn delete(&mut self, id: VolumeId) -> Result<(), VolumeError> {
        match self.volumes.get(&id) {
            None => Err(VolumeError::NotFound(id)),
            Some(v) if v.mounted => Err(VolumeError::StillMounted(id)),
            Some(_) => {
                self.volumes.remove(&id);
                Ok(())
            }
        }
    }

    /// Looks up a volume.
    pub fn get(&self, id: VolumeId) -> Option<&Volume> {
        self.volumes.get(&id)
    }

    /// Number of existing volumes (zombie detection: should equal the number
    /// of live containers).
    pub fn len(&self) -> usize {
        self.volumes.len()
    }

    /// Whether no volumes exist.
    pub fn is_empty(&self) -> bool {
        self.volumes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareProfile {
        HardwareProfile::server()
    }

    #[test]
    fn create_write_wipe_cycle() {
        let mut store = VolumeStore::new();
        let id = store.create_mounted();
        store.write(id, 100, 1 << 20).unwrap();
        assert_eq!(store.get(id).unwrap().files, 100);

        let wipe = store.wipe_and_remount(id, &hw()).unwrap();
        assert!(!wipe.is_zero());
        let v = store.get(id).unwrap();
        assert_eq!((v.files, v.bytes), (0, 0));
        assert!(v.mounted);
    }

    #[test]
    fn wipe_cost_grows_with_files() {
        let mut store = VolumeStore::new();
        let a = store.create_mounted();
        let b = store.create_mounted();
        store.write(a, 10, 1024).unwrap();
        store.write(b, 10_000, 1024).unwrap();
        let ca = store.wipe_and_remount(a, &hw()).unwrap();
        let cb = store.wipe_and_remount(b, &hw()).unwrap();
        assert!(cb > ca);
    }

    #[test]
    fn delete_requires_unmount() {
        let mut store = VolumeStore::new();
        let id = store.create_mounted();
        assert_eq!(store.delete(id), Err(VolumeError::StillMounted(id)));
        store.unmount(id).unwrap();
        assert_eq!(store.delete(id), Ok(()));
        assert_eq!(store.delete(id), Err(VolumeError::NotFound(id)));
        assert!(store.is_empty());
    }

    #[test]
    fn missing_volume_errors() {
        let mut store = VolumeStore::new();
        let ghost = VolumeId(999);
        assert_eq!(store.write(ghost, 1, 1), Err(VolumeError::NotFound(ghost)));
        assert!(store.wipe_and_remount(ghost, &hw()).is_err());
        assert_eq!(store.unmount(ghost), Err(VolumeError::NotFound(ghost)));
    }

    #[test]
    fn ids_are_unique() {
        let mut store = VolumeStore::new();
        let a = store.create_mounted();
        let b = store.create_mounted();
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
    }

    /// No zombies: any sequence of create/unmount/delete leaves
    /// exactly (creates - deletes) volumes, and deletes only succeed on
    /// unmounted volumes.
    #[test]
    fn prop_no_zombie_volumes() {
        testkit::check(64, |g| {
            let ops = g.vec(1..100, |g| g.u8_in(0..3));
            let mut store = VolumeStore::new();
            let mut live: Vec<VolumeId> = Vec::new();
            let mut created = 0usize;
            let mut deleted = 0usize;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    0 => {
                        let id = store.create_mounted();
                        live.push(id);
                        created += 1;
                    }
                    1 => {
                        if let Some(&id) = live.get(i % live.len().max(1)) {
                            let _ = store.unmount(id);
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let idx = i % live.len();
                            let id = live[idx];
                            let _ = store.unmount(id);
                            if store.delete(id).is_ok() {
                                live.remove(idx);
                                deleted += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(store.len(), created - deleted);
        });
    }
}
