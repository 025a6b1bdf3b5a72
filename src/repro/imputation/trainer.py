"""Training loop with optional Knowledge-Augmented Loss (KAL, §3.1).

The base objective is the EMD between imputed and ground-truth series.
With ``use_kal=True`` the loss becomes the augmented-Lagrangian form of
the constrained problem

    min EMD(T_r, Q_r)   s.t.  Φ(T_s, Q_r) = 0,  Ψ(T_s, Q_r) <= 0

where Φ aggregates the residuals of the equality constraints C1 (LANZ max)
and C2 (periodic samples) and Ψ is the smoothed inequality constraint C3
(work-conserving sent-count bound).  Each training example carries its own
Lagrange multipliers λ_eq (one per equality constraint family) and λ_ineq,
updated after every batch by the standard first-order rule
``λ ← λ + μ·violation`` (clamped at zero for the inequality), the scheme
the paper sketches: *"each Lagrange multiplier is updated by multiplying
the violations of the corresponding output data by a parameter μ; the
importance of a violation in the loss function increases as its magnitude
becomes higher."*  Two standard safeguards keep the multipliers from
drowning the data loss: a dead zone (no growth for residuals below
``violation_tolerance`` — an imperfect fit's RMS never reaches exactly
zero) and a cap (``multiplier_cap``); and the inequality term uses the
classical form ``(1/2μ)(max(0, λ+μΨ)² − λ²)`` whose gradient vanishes once
the constraint is slack, so over-satisfying C3 (driving every queue to
zero) earns nothing.

Per-example scalar residuals:

* ``Φ_i = sqrt(mean(residual²))`` over the queue×interval residuals — so
  the μΦ² term is the usual quadratic penalty and λΦ the linear
  Lagrangian term;
* ``Ψ_i = max`` over port×interval of the smoothed signed residual — the
  worst violation, with the conditional quadratic term
  ``μ·[λ>0 ∨ Ψ>0]·Ψ²`` from the paper's loss.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

import repro.obs as obs
from repro.autodiff.optim import Adam, clip_grad_norm
from repro.autodiff.runtime import kernel_scope
from repro.autodiff.tensor import Tensor, default_dtype, no_grad
from repro.constraints.differentiable import phi_max, phi_periodic, psi_sent
from repro.constraints.spec import check_constraints
from repro.imputation.transformer_imputer import TransformerImputer
from repro.nn.losses import emd_loss, mse_loss
from repro.telemetry.dataset import ImputationSample, TelemetryDataset
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

_EPS = 1e-12


@dataclass
class TrainerConfig:
    """Hyper-parameters of the training loop."""

    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    loss: str = "emd"  # "emd" or "mse"
    emd_magnitude_weight: float = 1.0
    use_kal: bool = False
    mu: float = 0.5  # augmented-Lagrangian penalty weight
    indicator_scale: float = 10.0  # tanh sharpness for the C3 surrogate
    multiplier_cap: float = 10.0  # ceiling on every Lagrange multiplier
    violation_tolerance: float = 0.01  # dead zone for multiplier growth
    ineq_weight: float = 0.25  # relative weight of the C3 (Ψ) terms; the
    # smoothed NE over-approximates the true non-empty count (sum across a
    # port's queues instead of OR), so the inequality residual runs hotter
    # than the equality residuals and needs damping to not drown them.
    use_phi: bool = True  # include the equality terms (C1, C2) in KAL
    use_psi: bool = True  # include the inequality term (C3) in KAL
    seed: int = 0
    log_every: int = 0  # epochs between stdout progress lines; 0 = silent
    dtype: str = "float32"  # training precision; float64 for gradient
    # checks and bit-identity against the reference kernels
    fused_kernels: bool = True  # fused softmax/layer-norm/GELU kernels;
    # False falls back to the composite reference ops

    def __post_init__(self):
        check_positive("epochs", self.epochs)
        check_positive("batch_size", self.batch_size)
        check_positive("learning_rate", self.learning_rate)
        if self.loss not in ("emd", "mse"):
            raise ValueError(f"loss must be 'emd' or 'mse', got {self.loss!r}")
        if self.use_kal and self.mu <= 0:
            raise ValueError(f"mu must be positive when use_kal, got {self.mu}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")


@dataclass
class TrainingHistory:
    """Per-epoch diagnostics collected during training."""

    loss: list[float] = field(default_factory=list)
    base_loss: list[float] = field(default_factory=list)
    constraint_loss: list[float] = field(default_factory=list)
    val_emd: list[float] = field(default_factory=list)


class Trainer:
    """Trains a :class:`TransformerImputer`, optionally with KAL."""

    def __init__(
        self,
        model: TransformerImputer,
        train: TelemetryDataset,
        config: TrainerConfig | None = None,
        val: TelemetryDataset | None = None,
    ):
        if len(train) == 0:
            raise ValueError("training dataset is empty")
        self.model = model
        self.train_set = train
        self.val_set = val
        self.config = config if config is not None else TrainerConfig()
        self._dtype = np.dtype(self.config.dtype)
        # Cast before the optimizer snapshots the parameters so the Adam
        # moment buffers come out in the training dtype as well.
        model.to_dtype(self._dtype)
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        self.history = TrainingHistory()
        n = len(train)
        # One multiplier per example per constraint family (§3.1).
        self.lambda_max = np.zeros(n)
        self.lambda_periodic = np.zeros(n)
        self.lambda_sent = np.zeros(n)
        self._rng = as_generator(self.config.seed)
        self._next_epoch = 0  # advanced by train(); restored by checkpoints

    # ------------------------------------------------------------------
    # Loss assembly
    # ------------------------------------------------------------------
    def _base_loss(self, pred: Tensor, target: Tensor) -> Tensor:
        if self.config.loss == "mse":
            return mse_loss(pred, target)
        return emd_loss(pred, target, magnitude_weight=self.config.emd_magnitude_weight)

    def _constraint_residuals(
        self, pred: Tensor, samples: list[ImputationSample]
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Per-example scalars (Φ_max, Φ_periodic, Ψ_sent), each shape (B,)."""
        scaler = self.train_set.scaler
        interval = samples[0].interval
        m_max = np.stack([s.m_max for s in samples]) / scaler.qlen_scale
        m_sample = np.stack([s.m_sample for s in samples]) / scaler.qlen_scale
        m_sent = np.stack([s.m_sent for s in samples])
        positions = samples[0].sample_positions

        res_max = phi_max(pred, m_max, interval)
        res_periodic = phi_periodic(pred, m_sample, positions)
        res_sent = psi_sent(
            pred,
            m_sent,
            self.train_set.switch_config,
            interval,
            indicator_scale=self.config.indicator_scale,
        )

        phi1 = ((res_max * res_max).mean(axis=(1, 2)) + _EPS).sqrt()
        phi2 = ((res_periodic * res_periodic).mean(axis=(1, 2)) + _EPS).sqrt()
        psi = res_sent.max(axis=(1, 2))
        return phi1, phi2, psi

    def _kal_terms(
        self,
        phi1: Tensor,
        phi2: Tensor,
        psi: Tensor,
        indices: np.ndarray,
    ) -> Tensor:
        """KAL loss for one batch, under the multipliers of the examples
        at ``indices``."""
        mu = self.config.mu
        lam_sent = self.lambda_sent[indices]
        lam1 = Tensor(self.lambda_max[indices])
        lam2 = Tensor(self.lambda_periodic[indices])
        lam3 = Tensor(lam_sent)
        # Equality constraints: μΦ² + λΦ (Φ >= 0 by construction).
        equality = (phi1 * phi1 + phi2 * phi2) * mu + lam1 * phi1 + lam2 * phi2
        if not self.config.use_phi:
            equality = equality * 0.0
        if not self.config.use_psi:
            return equality.mean()
        # Inequality constraint, standard augmented-Lagrangian form
        # (1/2μ)(max(0, λ+μΨ)² − λ²) = [λ+μΨ > 0]·(λΨ + μΨ²/2): active only
        # while the constraint binds, so an over-satisfied Ψ (deeply
        # negative) earns no further reward — without the guard the λΨ term
        # pays the model to drive every queue to zero.
        active = (lam_sent + mu * psi.data > 0).astype(float)
        inequality = (lam3 * psi + (psi * psi) * (mu / 2.0)) * Tensor(active)
        return (equality + inequality * self.config.ineq_weight).mean()

    def _update_multipliers(
        self, phi1: np.ndarray, phi2: np.ndarray, psi: np.ndarray, indices: np.ndarray
    ) -> None:
        mu = self.config.mu
        cap = self.config.multiplier_cap
        tol = self.config.violation_tolerance
        # Dead zone: residuals that can never reach exactly zero (RMS of an
        # imperfect fit) must not grow λ forever, or the Lagrangian terms
        # eventually drown the data loss.
        grow1 = np.where(phi1 > tol, mu * phi1, 0.0)
        grow2 = np.where(phi2 > tol, mu * phi2, 0.0)
        self.lambda_max[indices] = np.minimum(self.lambda_max[indices] + grow1, cap)
        self.lambda_periodic[indices] = np.minimum(
            self.lambda_periodic[indices] + grow2, cap
        )
        self.lambda_sent[indices] = np.clip(
            self.lambda_sent[indices] + mu * psi, 0.0, cap
        )

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def train(
        self,
        checkpoint_path: Union[str, Path, None] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> TrainingHistory:
        """Run the configured number of epochs; returns per-epoch diagnostics.

        With ``checkpoint_path`` the full trainer state (model parameters,
        optimizer moments, augmented-Lagrangian multipliers, epoch and RNG
        state) is written atomically every ``checkpoint_every`` epochs and
        after the final one.  With ``resume=True`` an existing checkpoint
        at that path is loaded first and training continues from the epoch
        after it — bit-identically to a never-interrupted run, because the
        permutation RNG and optimizer state travel with the checkpoint.
        Both default off: the unadorned ``train()`` is the seed code path.
        """
        cfg = self.config
        if checkpoint_path is not None:
            checkpoint_path = Path(checkpoint_path)
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if resume and checkpoint_path.exists():
                self.load_checkpoint(checkpoint_path)
        n = len(self.train_set)
        with obs.span(
            "trainer.train",
            epochs=cfg.epochs,
            start_epoch=self._next_epoch,
            use_kal=cfg.use_kal,
            examples=n,
            dtype=cfg.dtype,
        ), self._compute_context():
            self._train_epochs(cfg, n, checkpoint_path, checkpoint_every)
        return self.history

    @contextlib.contextmanager
    def _compute_context(self):
        """Dtype + kernel-selection context every forward/backward runs in."""
        with default_dtype(self._dtype), kernel_scope(self.config.fused_kernels):
            yield

    def _train_epochs(self, cfg, n, checkpoint_path, checkpoint_every) -> None:
        kind = "kal" if cfg.use_kal else "base"
        for epoch in range(self._next_epoch, cfg.epochs):
            with obs.span("trainer.epoch", epoch=epoch, kind=kind):
                self.model.train()
                order = self._rng.permutation(n)
                epoch_loss = 0.0
                epoch_base = 0.0
                epoch_constraint = 0.0
                num_batches = 0
                for start in range(0, n, cfg.batch_size):
                    indices = order[start : start + cfg.batch_size]
                    loss_value, base_value, constraint_value = self._train_batch(
                        indices
                    )
                    if cfg.use_kal:
                        epoch_constraint += constraint_value
                    epoch_loss += loss_value
                    epoch_base += base_value
                    num_batches += 1

                self.history.loss.append(epoch_loss / num_batches)
                self.history.base_loss.append(epoch_base / num_batches)
                self.history.constraint_loss.append(epoch_constraint / num_batches)
                if self.val_set is not None and len(self.val_set):
                    self.history.val_emd.append(self.evaluate(self.val_set))
            if obs.metrics_enabled():
                self._emit_epoch_metrics(kind)
            if cfg.log_every and (epoch + 1) % cfg.log_every == 0:
                val = f", val_emd={self.history.val_emd[-1]:.4f}" if self.history.val_emd else ""
                print(
                    f"epoch {epoch + 1}/{cfg.epochs}: "
                    f"loss={self.history.loss[-1]:.4f}{val}"
                )
            self._next_epoch = epoch + 1
            if checkpoint_path is not None and (
                self._next_epoch % checkpoint_every == 0
                or self._next_epoch == cfg.epochs
            ):
                self.save_checkpoint(checkpoint_path)

    # ------------------------------------------------------------------
    # Batch step
    # ------------------------------------------------------------------
    def _train_batch(self, indices: np.ndarray) -> tuple[float, float, float]:
        """One optimizer step over ``indices``; returns (loss, base, kal).

        The backward pass accumulates straight into the parameters'
        gradients, which are clipped before the Adam step; with KAL the
        batch's multipliers then grow by its residuals.
        """
        cfg = self.config
        samples = [self.train_set[i] for i in indices]
        features = Tensor(self.train_set.stack_features(samples))
        target = Tensor(self.train_set.stack_targets(samples))

        self.optimizer.zero_grad()
        pred = self.model(features)
        base = self._base_loss(pred, target)
        loss = base
        if cfg.use_kal:
            phi1, phi2, psi = self._constraint_residuals(pred, samples)
            constraint = self._kal_terms(phi1, phi2, psi, indices)
            loss = base + constraint
        loss.backward()
        values = (
            loss.item(),
            base.item(),
            constraint.item() if cfg.use_kal else 0.0,
        )
        clip_grad_norm(self.model.parameters(), cfg.grad_clip)
        self.optimizer.step()
        if cfg.use_kal:
            self._update_multipliers(phi1.data, phi2.data, psi.data, indices)
        return values

    def _emit_epoch_metrics(self, kind: str) -> None:
        """Stream the latest epoch's diagnostics into the metrics registry.

        Series names are prefixed ``trainer.<kind>`` (``base`` or ``kal``)
        so a Table-1 run's two trainings stay distinguishable; with KAL the
        Lagrange multiplier L2 norms go out as well, making runaway
        multipliers visible from the snapshot alone.
        """
        prefix = f"trainer.{kind}"
        obs.series(f"{prefix}.loss").append(self.history.loss[-1])
        obs.series(f"{prefix}.emd_loss").append(self.history.base_loss[-1])
        obs.series(f"{prefix}.constraint_loss").append(
            self.history.constraint_loss[-1]
        )
        if self.history.val_emd:
            obs.series(f"{prefix}.val_emd").append(self.history.val_emd[-1])
        if self.config.use_kal:
            for name, values in (
                ("lambda_max", self.lambda_max),
                ("lambda_periodic", self.lambda_periodic),
                ("lambda_sent", self.lambda_sent),
            ):
                obs.series(f"{prefix}.{name}_norm").append(
                    float(np.linalg.norm(values))
                )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def config_fingerprint(self) -> str:
        """Digest of the semantic trainer configuration, for checkpoints.

        Delegates to :func:`repro.config.config_digest` (the same hash
        that keys the trace cache and journal scopes) over the config
        *minus* the knobs a resume may legitimately change: ``epochs``
        (resuming with more epochs continues training) and ``log_every``
        (stdout cadence).  Everything else — loss, KAL terms, learning
        rate, batch size, seed, dtype — must match, or a resumed run would
        silently diverge from the uninterrupted one.
        """
        from dataclasses import replace

        from repro.config import config_digest

        return config_digest(replace(self.config, epochs=1, log_every=0))

    def save_checkpoint(self, path: Union[str, Path]) -> Path:
        """Atomically write the complete training state (checksummed).

        Captures everything a bit-identical resume needs: model
        parameters, Adam moments and step count, the per-example Lagrange
        multipliers, the per-epoch history, the shuffling RNG's state,
        and the next epoch to run.
        """
        from repro.resilience.checkpoint import save_checkpoint

        arrays: dict[str, np.ndarray] = {}
        for name, value in self.model.state_dict().items():
            arrays[f"model.{name}"] = value
        opt_state = self.optimizer.state_dict()
        for i, (m, v) in enumerate(zip(opt_state["m"], opt_state["v"])):
            arrays[f"opt.m.{i}"] = m
            arrays[f"opt.v.{i}"] = v
        arrays["lambda.max"] = self.lambda_max
        arrays["lambda.periodic"] = self.lambda_periodic
        arrays["lambda.sent"] = self.lambda_sent
        for field_name in ("loss", "base_loss", "constraint_loss", "val_emd"):
            arrays[f"history.{field_name}"] = np.asarray(
                getattr(self.history, field_name), dtype=np.float64
            )
        meta = {
            "kind": "trainer",
            "next_epoch": self._next_epoch,
            "adam_step": opt_state["step_count"],
            "num_examples": len(self.train_set),
            "config_digest": self.config_fingerprint(),
            "rng_state": self._rng.bit_generator.state,
        }
        return save_checkpoint(path, arrays, meta)

    def load_checkpoint(self, path: Union[str, Path]) -> int:
        """Restore state saved by :meth:`save_checkpoint`; returns the
        next epoch to run.  Raises :class:`~repro.resilience.checkpoint.
        CheckpointError` on a corrupt or mismatched checkpoint."""
        from repro.resilience.checkpoint import CheckpointError, load_checkpoint

        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != "trainer":
            raise CheckpointError(
                f"{path} is a {meta.get('kind')!r} checkpoint, expected 'trainer'"
            )
        if meta.get("num_examples") != len(self.train_set):
            raise CheckpointError(
                f"checkpoint was taken with {meta.get('num_examples')} training "
                f"examples; this trainer has {len(self.train_set)}"
            )
        stored_digest = meta.get("config_digest")
        if stored_digest is not None and stored_digest != self.config_fingerprint():
            # Absent in pre-unification checkpoints: those load unchecked,
            # exactly as they did when written.
            raise CheckpointError(
                f"checkpoint {path} was written under a different trainer "
                "configuration (loss/KAL/optimizer knobs changed); resuming "
                "would silently diverge from the original run"
            )
        self.model.load_state_dict(
            {
                name[len("model."):]: value
                for name, value in arrays.items()
                if name.startswith("model.")
            }
        )
        count = len(self.optimizer.params)
        self.optimizer.load_state_dict(
            {
                "step_count": meta["adam_step"],
                "m": [arrays[f"opt.m.{i}"] for i in range(count)],
                "v": [arrays[f"opt.v.{i}"] for i in range(count)],
            }
        )
        self.lambda_max = np.asarray(arrays["lambda.max"], dtype=np.float64)
        self.lambda_periodic = np.asarray(arrays["lambda.periodic"], dtype=np.float64)
        self.lambda_sent = np.asarray(arrays["lambda.sent"], dtype=np.float64)
        self.history = TrainingHistory(
            loss=[float(x) for x in arrays["history.loss"]],
            base_loss=[float(x) for x in arrays["history.base_loss"]],
            constraint_loss=[float(x) for x in arrays["history.constraint_loss"]],
            val_emd=[float(x) for x in arrays["history.val_emd"]],
        )
        self._rng.bit_generator.state = meta["rng_state"]
        self._next_epoch = int(meta["next_epoch"])
        return self._next_epoch

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, dataset: TelemetryDataset) -> float:
        """Mean base loss (no KAL terms) over a dataset."""
        self.model.eval()
        total = 0.0
        count = 0
        with self._compute_context(), no_grad():  # inference only
            for batch in dataset.batches(self.config.batch_size, shuffle=False):
                features = Tensor(dataset.stack_features(batch))
                target = Tensor(dataset.stack_targets(batch))
                pred = self.model(features)
                total += self._base_loss(pred, target).item() * len(batch)
                count += len(batch)
        return total / max(count, 1)

    def constraint_report(self, dataset: TelemetryDataset) -> dict[str, float]:
        """Mean exact constraint errors of the model over a dataset."""
        with no_grad():  # inference only: skip graph construction
            reports = [
                check_constraints(self.model.impute(s), s, dataset.switch_config)
                for s in dataset.samples
            ]
        return {
            "max_error": float(np.mean([r.max_error for r in reports])),
            "periodic_error": float(np.mean([r.periodic_error for r in reports])),
            "sent_error": float(np.mean([r.sent_error for r in reports])),
        }
