"""From-scratch machine-learning substrate.

Only numpy/scipy are available offline, so the two learners the paper uses
are implemented here directly: a Support Vector Machine trained with
Platt's SMO (Section IV-B) and a small deep-Q network — numpy MLP, replay
buffer, target network — for the RL dispatcher (Section IV-C, which follows
Pensieve [24] in using a DNN policy).
"""

from repro.ml.scaler import StandardScaler
from repro.ml.kernels import linear_kernel, polynomial_kernel, rbf_kernel, resolve_kernel
from repro.ml.svm import SVC
from repro.ml.metrics import (
    ClassificationCounts,
    accuracy,
    confusion_counts,
    f1_score,
    precision,
    recall,
)
from repro.ml.nn import MLP
from repro.ml.replay import ReplayBuffer, Transition
from repro.ml.dqn import DQNAgent, DQNConfig

__all__ = [
    "ClassificationCounts",
    "DQNAgent",
    "DQNConfig",
    "MLP",
    "ReplayBuffer",
    "SVC",
    "StandardScaler",
    "Transition",
    "accuracy",
    "confusion_counts",
    "f1_score",
    "linear_kernel",
    "polynomial_kernel",
    "precision",
    "rbf_kernel",
    "recall",
    "resolve_kernel",
]
