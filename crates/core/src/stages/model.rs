//! Model-based cleaning — the paper's BBQ-style extension point.
//!
//! §6.3.1: "the Virtualize stage could also be implemented with a BBQ-like
//! system \[12\]. Such a function would build models of the receptor streams
//! to assist in cleaning the data", and §3.2 suggests exploiting
//! "correlations between different sensors (e.g., voltage and temperature)
//! to provide outlier detection".
//!
//! [`ModelStage`] learns, online and per device, a linear model
//! `target ≈ a·predictor + b` between two fields of the same stream (e.g.
//! battery voltage → temperature). Once warmed up, readings whose target
//! deviates from the model's prediction by more than `k` residual standard
//! deviations are flagged — and either dropped or *corrected* to the
//! predicted value. Because the model conditions on a physically
//! independent channel, it detects a fail-dirty sensor **from a single
//! device**, where Merge needs healthy neighbours in the proximity group.
//!
//! Outliers are excluded from model updates, so a failed sensor cannot
//! drag its own model along with it.

use std::collections::HashMap;

use esp_stream::Payload;
use esp_types::{Batch, EspError, Result, Ts, Tuple, Value, ValueKey};

use crate::stage::Stage;

/// What to do with a reading the model rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelAction {
    /// Drop the reading entirely.
    Drop,
    /// Replace the target field with the model's prediction and pass the
    /// reading through (BBQ-style value substitution).
    Correct,
}

/// Online simple linear regression with residual tracking
/// (Welford-style co-moment updates; numerically stable one-pass).
#[derive(Debug, Clone, Copy, Default)]
struct OnlineRegression {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    /// Σ (x−x̄)(y−ȳ)
    c_xy: f64,
    /// Σ (x−x̄)²
    m2_x: f64,
    /// Residual accounting (predictions made before each accepted update).
    resid_n: u64,
    resid_m2: f64,
}

impl OnlineRegression {
    fn observe(&mut self, x: f64, y: f64) {
        self.n += 1;
        let dx = x - self.mean_x;
        self.mean_x += dx / self.n as f64;
        let dy = y - self.mean_y;
        self.mean_y += dy / self.n as f64;
        // Co-moment uses the *updated* mean_x and the pre-update dy.
        self.c_xy += dx * (y - self.mean_y);
        self.m2_x += dx * (x - self.mean_x);
    }

    fn slope(&self) -> Option<f64> {
        (self.n >= 2 && self.m2_x > 1e-12).then(|| self.c_xy / self.m2_x)
    }

    fn predict(&self, x: f64) -> Option<f64> {
        let a = self.slope()?;
        Some(self.mean_y + a * (x - self.mean_x))
    }

    fn record_residual(&mut self, e: f64) {
        self.resid_n += 1;
        self.resid_m2 += e * e;
    }

    fn residual_sd(&self) -> Option<f64> {
        (self.resid_n >= 2).then(|| (self.resid_m2 / self.resid_n as f64).sqrt())
    }
}

/// The model-based cleaning stage: one online regression per key
/// (typically per `receptor_id`).
pub struct ModelStage {
    name: String,
    predictor_field: String,
    target_field: String,
    key_field: String,
    threshold_sigmas: f64,
    min_samples: u64,
    min_residual: f64,
    action: ModelAction,
    models: HashMap<ValueKey, OnlineRegression>,
    flagged: u64,
}

impl ModelStage {
    /// Create a model stage predicting `target_field` from
    /// `predictor_field`, one model per distinct `key_field` value.
    ///
    /// * `threshold_sigmas` — flag readings more than this many residual
    ///   standard deviations from the prediction;
    /// * `min_samples` — warm-up observations before the model judges;
    /// * `min_residual` — floor on the residual σ, so near-noiseless
    ///   training data doesn't make the detector hair-triggered.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        key_field: impl Into<String>,
        predictor_field: impl Into<String>,
        target_field: impl Into<String>,
        threshold_sigmas: f64,
        min_samples: u64,
        min_residual: f64,
        action: ModelAction,
    ) -> Result<ModelStage> {
        if threshold_sigmas <= 0.0 {
            return Err(EspError::Config("model threshold must be positive".into()));
        }
        if min_samples < 2 {
            return Err(EspError::Config(
                "model warm-up needs at least 2 samples".into(),
            ));
        }
        Ok(ModelStage {
            name: name.into(),
            predictor_field: predictor_field.into(),
            target_field: target_field.into(),
            key_field: key_field.into(),
            threshold_sigmas,
            min_samples,
            min_residual,
            action,
            models: HashMap::new(),
            flagged: 0,
        })
    }

    /// Readings flagged as model-inconsistent so far.
    pub fn flagged(&self) -> u64 {
        self.flagged
    }

    /// Replace `target_field` in `t` with `value`.
    fn with_target(&self, t: &Tuple, value: f64) -> Result<Tuple> {
        let idx = t.schema().require(&self.target_field)?;
        let mut vals = t.values().to_vec();
        vals[idx] = Value::Float(value);
        Ok(Tuple::new_unchecked(t.schema().clone(), t.ts(), vals))
    }
}

impl Stage for ModelStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _epoch: Ts, input: Payload) -> Result<Payload> {
        let input = input.into_rows();
        let mut out = Batch::with_capacity(input.len());
        for t in input {
            let (Some(x), Some(y)) = (
                t.get(&self.predictor_field).and_then(Value::as_f64),
                t.get(&self.target_field).and_then(Value::as_f64),
            ) else {
                // Readings without both channels pass through unjudged.
                out.push(t);
                continue;
            };
            let key = t.require(&self.key_field)?.group_key();
            let model = self.models.entry(key).or_default();
            let warmed = model.n >= self.min_samples;
            let verdict = if warmed {
                match (model.predict(x), model.residual_sd()) {
                    (Some(pred), sd) => {
                        let band = self.threshold_sigmas
                            * sd.unwrap_or(self.min_residual).max(self.min_residual);
                        Some((pred, (y - pred).abs() > band))
                    }
                    _ => None,
                }
            } else {
                None
            };
            match verdict {
                Some((pred, true)) => {
                    // Outlier: act, and do NOT feed it back into the model.
                    self.flagged += 1;
                    match self.action {
                        ModelAction::Drop => {}
                        ModelAction::Correct => out.push(self.with_target(&t, pred)?),
                    }
                }
                Some((pred, false)) => {
                    model.record_residual(y - pred);
                    model.observe(x, y);
                    out.push(t);
                }
                None => {
                    // Warm-up: learn, pass through.
                    if let Some(pred) = model.predict(x) {
                        model.record_residual(y - pred);
                    }
                    model.observe(x, y);
                    out.push(t);
                }
            }
        }
        Ok(Payload::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::ProcessRows;
    use esp_types::{well_known, TupleBuilder};

    fn reading(ts: Ts, id: i64, temp: f64, volts: f64) -> Tuple {
        TupleBuilder::new(&well_known::temp_voltage_schema(), ts)
            .set("receptor_id", id)
            .unwrap()
            .set("temp", temp)
            .unwrap()
            .set("voltage", volts)
            .unwrap()
            .build()
            .unwrap()
    }

    fn stage(action: ModelAction) -> ModelStage {
        ModelStage::new(
            "model",
            "receptor_id",
            "voltage",
            "temp",
            4.0,
            10,
            0.5,
            action,
        )
        .unwrap()
    }

    /// volts = 2.7 + 0.01·temp  →  temp = 100·volts − 270.
    fn volts_for(temp: f64) -> f64 {
        2.7 + 0.01 * temp
    }

    #[test]
    fn consistent_readings_pass_through() {
        let mut s = stage(ModelAction::Drop);
        for i in 0..50 {
            let temp = 18.0 + (i % 7) as f64;
            let batch = s
                .process_rows(
                    Ts::from_secs(i),
                    vec![reading(Ts::from_secs(i), 1, temp, volts_for(temp))],
                )
                .unwrap();
            assert_eq!(batch.len(), 1, "healthy reading {i} must pass");
        }
        assert_eq!(s.flagged(), 0);
    }

    #[test]
    fn fail_dirty_sensor_detected_from_one_device() {
        let mut s = stage(ModelAction::Drop);
        // Warm up on a healthy sensor.
        for i in 0..30u64 {
            let temp = 18.0 + (i % 7) as f64;
            s.process_rows(
                Ts::from_secs(i),
                vec![reading(Ts::from_secs(i), 1, temp, volts_for(temp))],
            )
            .unwrap();
        }
        // Sensor fails: temperature drifts up, voltage keeps tracking the
        // true ~20 °C environment.
        let mut dropped = 0;
        for i in 0..20u64 {
            let reported = 25.0 + 5.0 * i as f64;
            let out = s
                .process_rows(
                    Ts::from_secs(100 + i),
                    vec![reading(
                        Ts::from_secs(100 + i),
                        1,
                        reported,
                        volts_for(20.0),
                    )],
                )
                .unwrap();
            dropped += usize::from(out.is_empty());
        }
        assert!(
            dropped >= 18,
            "almost all fail-dirty readings dropped, got {dropped}"
        );
        assert!(s.flagged() >= 18);
    }

    #[test]
    fn correct_action_substitutes_prediction() {
        let mut s = stage(ModelAction::Correct);
        for i in 0..30u64 {
            let temp = 15.0 + (i % 10) as f64;
            s.process_rows(
                Ts::from_secs(i),
                vec![reading(Ts::from_secs(i), 1, temp, volts_for(temp))],
            )
            .unwrap();
        }
        // A wild reading with a healthy voltage for 20 °C.
        let out = s
            .process_rows(
                Ts::from_secs(99),
                vec![reading(Ts::from_secs(99), 1, 120.0, volts_for(20.0))],
            )
            .unwrap();
        assert_eq!(out.len(), 1, "corrected, not dropped");
        let corrected = out[0].get("temp").unwrap().as_f64().unwrap();
        assert!(
            (corrected - 20.0).abs() < 1.5,
            "prediction should recover ~20 °C, got {corrected}"
        );
        // Other fields are untouched.
        assert_eq!(out[0].get("receptor_id"), Some(&Value::Int(1)));
    }

    #[test]
    fn models_are_per_device() {
        let mut s = stage(ModelAction::Drop);
        // Device 1: volts = 2.7 + 0.01 t. Device 2: volts = 3.0 − 0.02 t.
        for i in 0..30u64 {
            let t1 = 15.0 + (i % 10) as f64;
            let t2 = 10.0 + (i % 5) as f64;
            s.process_rows(
                Ts::from_secs(i),
                vec![
                    reading(Ts::from_secs(i), 1, t1, 2.7 + 0.01 * t1),
                    reading(Ts::from_secs(i), 2, t2, 3.0 - 0.02 * t2),
                ],
            )
            .unwrap();
        }
        assert_eq!(s.flagged(), 0, "each device judged by its own model");
        // A device-2 reading judged by device-1's model would pass; by its
        // own model it fails.
        let out = s
            .process_rows(
                Ts::from_secs(99),
                vec![reading(Ts::from_secs(99), 2, 50.0, 3.0 - 0.02 * 12.0)],
            )
            .unwrap();
        assert!(out.is_empty(), "inconsistent with device 2's own model");
    }

    #[test]
    fn outliers_do_not_poison_the_model() {
        let mut s = stage(ModelAction::Drop);
        for i in 0..30u64 {
            let temp = 18.0 + (i % 7) as f64;
            s.process_rows(
                Ts::from_secs(i),
                vec![reading(Ts::from_secs(i), 1, temp, volts_for(temp))],
            )
            .unwrap();
        }
        // A long run of fail-dirty readings…
        for i in 0..100u64 {
            s.process_rows(
                Ts::from_secs(100 + i),
                vec![reading(Ts::from_secs(100 + i), 1, 120.0, volts_for(20.0))],
            )
            .unwrap();
        }
        // …after which a healthy reading still passes (model not dragged).
        let out = s
            .process_rows(
                Ts::from_secs(999),
                vec![reading(Ts::from_secs(999), 1, 21.0, volts_for(21.0))],
            )
            .unwrap();
        assert_eq!(out.len(), 1, "healthy reading accepted after failure run");
    }

    #[test]
    fn readings_without_both_channels_pass_unjudged() {
        let mut s = stage(ModelAction::Drop);
        let t = TupleBuilder::new(&well_known::temp_schema(), Ts::ZERO)
            .set("receptor_id", 1i64)
            .unwrap()
            .set("temp", 400.0)
            .unwrap()
            .build()
            .unwrap();
        let out = s.process_rows(Ts::ZERO, vec![t]).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn config_validation() {
        assert!(ModelStage::new("m", "k", "x", "y", 0.0, 10, 0.1, ModelAction::Drop).is_err());
        assert!(ModelStage::new("m", "k", "x", "y", 3.0, 1, 0.1, ModelAction::Drop).is_err());
    }
}
