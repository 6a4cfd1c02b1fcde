"""Versioned agent checkpoints (NumPy ``.npz``).

The paper's model coefficients are trained once per system and reused
for every online decision, so durable, validated persistence matters:

* all network tensors (online + target) in one compressed ``.npz``,
* the architecture fingerprint (inputs/actions/hidden/dueling/double/
  gamma) and training counters stored alongside, and **checked on
  load** — loading an A100-trained agent into a mismatched network is
  an error, not a silent corruption;
* a format version for forward compatibility;
* atomic writes (temp file + rename) and corruption detection —
  a crash mid-``save_agent`` never leaves a half-written file at the
  target path, and a truncated or garbage archive raises
  :class:`~repro.errors.ConfigurationError` instead of a stray
  ``zipfile``/``numpy`` exception.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.rl.dqn import DQNConfig, DuelingDoubleDQNAgent

__all__ = ["save_agent", "load_agent", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1


def _fingerprint(config: DQNConfig) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "n_inputs": config.n_inputs,
        "n_actions": config.n_actions,
        "hidden": list(config.hidden),
        "use_dueling": config.use_dueling,
        "use_double": config.use_double,
        "gamma": config.gamma,
    }


def save_agent(agent: DuelingDoubleDQNAgent, path: str | Path) -> None:
    """Write a checkpoint; the suffix ``.npz`` is appended if missing.

    The write is atomic: tensors go to a temp file in the same
    directory which is fsynced and renamed over the target, so an
    interrupted save leaves either the previous checkpoint or nothing —
    never a loadable-but-corrupt file.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    tensors: dict[str, np.ndarray] = {}
    for i, t in enumerate(agent.online.state_dict()):
        tensors[f"online_{i:03d}"] = t
    for i, t in enumerate(agent.target.state_dict()):
        tensors[f"target_{i:03d}"] = t
    meta = _fingerprint(agent.config)
    meta["train_steps"] = agent.train_steps
    meta["env_steps"] = agent.env_steps
    tensors["meta_json"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez_compressed(f, **tensors)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_agent(
    path: str | Path, config: DQNConfig | None = None
) -> DuelingDoubleDQNAgent:
    """Restore an agent from a checkpoint.

    When ``config`` is given, its architecture must match the stored
    fingerprint; otherwise a fresh config is reconstructed from the
    fingerprint (with library-default training hyper-parameters, which
    is fine for online/greedy use).
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    try:
        with np.load(path) as data:
            if "meta_json" not in data.files:
                raise ConfigurationError(
                    f"checkpoint {path} has no metadata record; it is "
                    "truncated or was not written by save_agent"
                )
            meta = json.loads(bytes(data["meta_json"]).decode())
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ConfigurationError(
                    f"checkpoint version {meta.get('version')} is not supported "
                    f"(expected {CHECKPOINT_VERSION})"
                )
            if config is None:
                config = DQNConfig(
                    n_inputs=int(meta["n_inputs"]),
                    n_actions=int(meta["n_actions"]),
                    hidden=tuple(meta["hidden"]),
                    use_dueling=bool(meta["use_dueling"]),
                    use_double=bool(meta["use_double"]),
                    gamma=float(meta["gamma"]),
                )
            else:
                stored = _fingerprint(config)
                for key in (
                    "n_inputs",
                    "n_actions",
                    "hidden",
                    "use_dueling",
                    "use_double",
                    "gamma",
                ):
                    if stored[key] != meta[key]:
                        raise ConfigurationError(
                            f"checkpoint mismatch on {key}: file has "
                            f"{meta[key]}, config has {stored[key]}"
                        )
            agent = DuelingDoubleDQNAgent(config)
            online = [
                data[k] for k in sorted(d for d in data.files if d.startswith("online_"))
            ]
            target = [
                data[k] for k in sorted(d for d in data.files if d.startswith("target_"))
            ]
            agent.online.load_state_dict(online)
            agent.target.load_state_dict(target)
            agent.train_steps = int(meta["train_steps"])
            agent.env_steps = int(meta["env_steps"])
        return agent
    except ConfigurationError:
        raise
    except FileNotFoundError:
        raise
    except (
        zipfile.BadZipFile, zlib.error, OSError, ValueError, KeyError,
        EOFError, RuntimeError,
    ) as exc:
        # numpy and zipfile surface truncated/garbage archives through
        # several exception types (a flipped header bit can name an
        # unsupported compression method or the encryption flag, both
        # RuntimeErrors); normalize them all to one clear error
        raise ConfigurationError(
            f"checkpoint {path} is truncated or corrupt: {exc}"
        ) from exc
