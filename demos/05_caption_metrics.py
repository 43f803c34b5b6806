"""Walkthrough: scoring generated captions against references.

Runs the n-gram metrics on close caption pairs, shows the ranking metric,
and computes an embedding-based score with the deterministic stand-in
embedding provider.
"""

import numpy as np

from surgreport import (
    average_precision,
    bertscore,
    bleu,
    classification_metrics,
    deterministic_token_embeddings,
    rouge,
    tokenize,
)
from surgreport.embeddings import EmbeddedText

reference = "During phase gallbladder-dissection, the hook is dissecting the gallbladder"
candidates = [
    reference,
    "During phase gallbladder-dissection, the hook is dissecting the liver",
    "During phase preparation, the grasper is grasping the omentum",
]

print(f"reference: {reference}\n")
ref_tokens = tokenize(reference)
for candidate in candidates:
    cand_tokens = tokenize(candidate)
    scores = (
        bleu(cand_tokens, ref_tokens),
        rouge(cand_tokens, ref_tokens, "r1"),
        rouge(cand_tokens, ref_tokens, "r2"),
        rouge(cand_tokens, ref_tokens, "rL"),
    )
    print(f"  bleu {scores[0]:.3f}  r1 {scores[1]:.3f}  r2 {scores[2]:.3f}  rL {scores[3]:.3f}"
          f"  <- {candidate[:60]}...")

# Embedding-based scoring; vectors here come from the hash-based stand-in
# provider (a real pipeline ingests contextual embeddings from a file).
def embed(text):
    tokens = tuple(tokenize(text))
    return EmbeddedText(tokens, deterministic_token_embeddings(tokens, dim=64))

print("\nEmbedding-based scores against the reference:")
for candidate in candidates:
    score = bertscore(embed(candidate), embed(reference))
    print(f"  precision {score.precision:.3f}  recall {score.recall:.3f}  f1 {score.f1:.3f}")

# Detection-side metrics take (frames, classes) matrices: micro-averaged
# cells, and the ranking sweep per class column.
truth = np.array([[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 0, 0]])
predicted = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 0]])
print("\nmicro precision/recall/f1/accuracy:", classification_metrics(predicted, truth))

# Class 0 ranks both positives first; class 1 has one inversion.
scores = np.array([[0.9, 0.8], [0.7, 0.6], [0.4, 0.3], [0.2, 0.1]])
relevant = np.array([[1, 0], [1, 1], [0, 1], [0, 0]])
result = average_precision(scores, relevant, n_instruments=1)
print("per-class AP:", [f"{ap:.3f}" for ap in result.per_class])
