//! The versioned model registry: named, numbered [`FrozenModel`]s.
//!
//! Publishing is the only way a model enters the serving tier. Each name
//! owns a monotonically numbered history (first publish is v1); the
//! control plane always serves a name's *latest* version, and a blue/green
//! hot-swap is just "publish, then re-pool from latest". Snapshots are
//! handed out as [`Arc`]s, so a whole engine pool shares one ϕ and a
//! retired version stays alive until its last engine drops.
//!
//! Iteration order everywhere is the [`BTreeMap`]'s name order — the
//! registry's listing, like everything else in the repo, is deterministic.

use crate::api::ModelVersion;
use crate::frozen::FrozenModel;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One name's history: the live versions plus a high-water mark so
/// version numbers never rewind while the name is live, even after the
/// newest version retires.
#[derive(Debug, Default)]
struct NameHistory {
    high_water: u32,
    versions: Vec<(u32, Arc<FrozenModel>)>,
}

/// A thread-safe map of model name → version history.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    inner: Mutex<BTreeMap<String, NameHistory>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, NameHistory>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes `model` under `name`, assigning the next version number
    /// (1 for a new name; numbers keep climbing even after retirements).
    /// Accepts an owned model or an already-shared [`Arc`].
    pub fn publish(
        &self,
        name: impl Into<String>,
        model: impl Into<Arc<FrozenModel>>,
    ) -> ModelVersion {
        let name = name.into();
        let mut inner = self.lock();
        let history = inner.entry(name.clone()).or_default();
        history.high_water += 1;
        let version = history.high_water;
        history.versions.push((version, model.into()));
        ModelVersion::new(name, version)
    }

    /// The newest live version of `name`, if any.
    pub fn latest(&self, name: &str) -> Option<(ModelVersion, Arc<FrozenModel>)> {
        let inner = self.lock();
        let (v, m) = inner.get(name)?.versions.last()?;
        Some((ModelVersion::new(name, *v), Arc::clone(m)))
    }

    /// A specific published version of `name`, if still live.
    pub fn get(&self, name: &str, version: u32) -> Option<Arc<FrozenModel>> {
        let inner = self.lock();
        inner
            .get(name)?
            .versions
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, m)| Arc::clone(m))
    }

    /// Live version numbers of `name`, ascending.
    pub fn versions(&self, name: &str) -> Vec<u32> {
        self.lock()
            .get(name)
            .map(|h| h.versions.iter().map(|(v, _)| *v).collect())
            .unwrap_or_default()
    }

    /// All published names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Removes one version from `name`'s history (engines already holding
    /// its [`Arc`] keep serving it). Returns whether anything was removed;
    /// a name whose last version retires disappears from the listing.
    pub fn retire(&self, name: &str, version: u32) -> bool {
        let mut inner = self.lock();
        let Some(history) = inner.get_mut(name) else {
            return false;
        };
        let before = history.versions.len();
        history.versions.retain(|(v, _)| *v != version);
        let removed = history.versions.len() < before;
        if history.versions.is_empty() {
            inner.remove(name);
        }
        removed
    }

    /// Total live `(name, version)` snapshots.
    pub fn len(&self) -> usize {
        self.lock().values().map(|h| h.versions.len()).sum()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_sampler::{LdaModel, PhiModel, Priors};

    fn model() -> FrozenModel {
        FrozenModel::from_phi(PhiModel::zeros(4, 6, Priors::paper(4)))
    }

    #[test]
    fn publish_numbers_versions_monotonically() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.publish("news", model()), ModelVersion::new("news", 1));
        assert_eq!(reg.publish("news", model()), ModelVersion::new("news", 2));
        assert_eq!(reg.publish("mail", model()), ModelVersion::new("mail", 1));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.names(), vec!["mail".to_string(), "news".to_string()]);
        assert_eq!(reg.versions("news"), vec![1, 2]);
        let (latest, _) = reg.latest("news").unwrap();
        assert_eq!(latest.version, 2);
        assert!(reg.get("news", 1).is_some());
        assert!(reg.get("news", 3).is_none());
        assert!(reg.latest("ghost").is_none());
    }

    #[test]
    fn retire_keeps_numbering_and_drops_empty_names() {
        let reg = ModelRegistry::new();
        reg.publish("news", model());
        reg.publish("news", model());
        // A pool holding v2 keeps it alive past retirement.
        let (_, held) = reg.latest("news").unwrap();
        assert!(reg.retire("news", 2));
        assert!(!reg.retire("news", 2), "already gone");
        assert_eq!(reg.versions("news"), vec![1]);
        assert_eq!(held.num_topics(), 4);
        // Numbers never rewind: the next publish is v3, not v2.
        assert_eq!(reg.publish("news", model()).version, 3);
        assert!(reg.retire("news", 1));
        assert!(reg.retire("news", 3));
        assert!(reg.names().is_empty());
        assert!(reg.latest("news").is_none());
    }
}
