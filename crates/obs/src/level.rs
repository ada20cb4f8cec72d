//! The per-level record every pillar emits: one tree level as the
//! paper's FCFS reader/writer lock queue (λ_r, λ_w, ρ_w, R(i), W(i)),
//! whether predicted by the analysis, simulated, measured by the live
//! lock statistics or replayed from a trace.

use crate::json::Json;

/// One tree level's lock queue as one pillar predicted or measured it.
/// A field the pillar cannot produce is `None` (JSON `null`), never 0.
/// Live and trace records are in seconds; analysis and simulation
/// records are in model cost units ([`LevelRecord::in_seconds`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelRecord {
    /// Tree level (1 = leaves).
    pub level: usize,
    /// Nodes on the level.
    pub nodes: Option<u64>,
    /// Shared latch acquisitions granted.
    pub r_acquires: Option<u64>,
    /// Exclusive latch acquisitions granted.
    pub w_acquires: Option<u64>,
    /// Shared acquisitions per node per time unit.
    pub lambda_r: Option<f64>,
    /// Exclusive acquisitions per node per time unit.
    pub lambda_w: Option<f64>,
    /// Writer *presence*, the analysis's ρ_w: the per-node fraction of
    /// time a writer holds or waits for the latch.
    pub rho_w: Option<f64>,
    /// Hold-only writer utilization: the per-node fraction of time a
    /// writer holds the latch.
    pub rho_w_hold: Option<f64>,
    /// Mean wait for a shared latch, R(i).
    pub mean_r_wait: Option<f64>,
    /// Mean wait for an exclusive latch, W(i).
    pub mean_w_wait: Option<f64>,
    /// Mean shared hold.
    pub mean_r_hold: Option<f64>,
    /// Mean exclusive hold.
    pub mean_w_hold: Option<f64>,
}

impl LevelRecord {
    /// `total / n`, or `None` when nothing was observed.
    pub fn mean(total: f64, n: u64) -> Option<f64> {
        (n > 0).then(|| total / n as f64)
    }

    /// This record with model cost units converted to seconds, one unit
    /// lasting `unit_secs`: rates divide by it, times multiply by it.
    pub fn in_seconds(&self, unit_secs: f64) -> LevelRecord {
        let rate = |v: Option<f64>| v.map(|x| x / unit_secs);
        let time = |v: Option<f64>| v.map(|x| x * unit_secs);
        LevelRecord {
            lambda_r: rate(self.lambda_r),
            lambda_w: rate(self.lambda_w),
            mean_r_wait: time(self.mean_r_wait),
            mean_w_wait: time(self.mean_w_wait),
            mean_r_hold: time(self.mean_r_hold),
            mean_w_hold: time(self.mean_w_hold),
            ..self.clone()
        }
    }

    /// The JSON object, every field under its own name, `null` where
    /// the value is `None` or not finite.
    pub fn to_json(&self) -> Json {
        let count = |v: Option<u64>| v.map_or(Json::Null, Json::from);
        let real = |v: Option<f64>| v.map_or(Json::Null, Json::f64_or_null);
        Json::obj([
            ("level", Json::from(self.level)),
            ("nodes", count(self.nodes)),
            ("r_acquires", count(self.r_acquires)),
            ("w_acquires", count(self.w_acquires)),
            ("lambda_r", real(self.lambda_r)),
            ("lambda_w", real(self.lambda_w)),
            ("rho_w", real(self.rho_w)),
            ("rho_w_hold", real(self.rho_w_hold)),
            ("mean_r_wait", real(self.mean_r_wait)),
            ("mean_w_wait", real(self.mean_w_wait)),
            ("mean_r_hold", real(self.mean_r_hold)),
            ("mean_w_hold", real(self.mean_w_hold)),
        ])
    }

    /// Parses what [`LevelRecord::to_json`] wrote: every key must be
    /// present, and `null` reads as `None`.
    pub fn from_json(j: &Json) -> Result<LevelRecord, String> {
        let get = |key: &str| match j.get(key) {
            Some(v) => Ok((!v.is_null()).then_some(v)),
            None => Err(format!("level record has no `{key}`")),
        };
        let count = |key| get(key).map(|v| v.and_then(Json::as_u64));
        let real = |key| get(key).map(|v| v.and_then(Json::as_f64));
        Ok(LevelRecord {
            level: count("level")?.ok_or("`level` is not a count")? as usize,
            nodes: count("nodes")?,
            r_acquires: count("r_acquires")?,
            w_acquires: count("w_acquires")?,
            lambda_r: real("lambda_r")?,
            lambda_w: real("lambda_w")?,
            rho_w: real("rho_w")?,
            rho_w_hold: real("rho_w_hold")?,
            mean_r_wait: real("mean_r_wait")?,
            mean_w_wait: real("mean_w_wait")?,
            mean_r_hold: real("mean_r_hold")?,
            mean_w_hold: real("mean_w_hold")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one place the record's JSON field set is spelled out; the
    /// artifact shape tests compare against `LevelRecord::default()`.
    #[test]
    fn the_field_set_is_pinned() {
        let keys = "level nodes r_acquires w_acquires lambda_r lambda_w rho_w rho_w_hold \
                    mean_r_wait mean_w_wait mean_r_hold mean_w_hold";
        let Json::Obj(fields) = LevelRecord::default().to_json() else {
            panic!("not an object")
        };
        let written: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(written.join(" "), keys);
    }

    #[test]
    fn round_trips_with_missing_values_as_null() {
        let r = LevelRecord {
            level: 3,
            nodes: Some(7),
            w_acquires: Some(0),
            lambda_w: Some(0.25),
            rho_w_hold: Some(0.5),
            mean_w_wait: Some(1e-6),
            ..LevelRecord::default()
        };
        let text = r.to_json().to_string().unwrap();
        assert!(text.contains("\"rho_w\":null"), "{text}");
        assert!(text.contains("\"w_acquires\":0"), "{text}");
        let back = LevelRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // A NaN is written as null and read back as missing.
        let nan = LevelRecord {
            rho_w: Some(f64::NAN),
            ..r.clone()
        };
        assert_eq!(LevelRecord::from_json(&nan.to_json()).unwrap(), r);
    }

    #[test]
    fn a_record_without_every_key_does_not_parse() {
        let old = Json::obj([("level", Json::from(1u64)), ("rho_w", Json::from(0.5))]);
        let err = LevelRecord::from_json(&old).unwrap_err();
        assert!(err.contains("nodes"), "{err}");
    }

    #[test]
    fn model_units_convert_rates_and_times() {
        let r = LevelRecord {
            level: 1,
            nodes: Some(4),
            lambda_r: Some(2.0),
            rho_w: Some(0.3),
            mean_w_wait: Some(3.0),
            ..LevelRecord::default()
        };
        let s = r.in_seconds(0.5);
        assert_eq!(s.lambda_r, Some(4.0));
        assert_eq!(s.mean_w_wait, Some(1.5));
        assert_eq!((s.nodes, s.rho_w, s.lambda_w), (Some(4), Some(0.3), None));
    }
}
