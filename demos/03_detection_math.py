"""Walkthrough: patch grids, logit squashing, thresholds, and the loss.

Every number here is computable by hand: the 196-patch grid of a 224x224
frame, temperature-scaled probabilities, strict-threshold detection, and
the inverse-frequency weighted cross-entropy.
"""

import numpy as np

from surgreport import (
    class_weights,
    default_vocabulary,
    patch_count,
    patchify,
    probabilities_from_logits,
    threshold_detect,
    unpatchify,
    weighted_bce,
)

vocab = default_vocabulary()

# Patch grid: a 224x224 RGB frame with 16x16 patches yields 196 patches.
print("patch_count(224, 224, 16) =", patch_count(224, 224, 16))
image = np.random.default_rng(0).random((224, 224, 3))
sequence = patchify(image, 16)
print("patch vectors shape:", sequence.vectors.shape, "(positions 1..%d)" % len(sequence))
print("tiling is exact:", np.array_equal(unpatchify(sequence), image))

# A tiny example grid makes the flattening order visible.
tiny = np.arange(1, 17).reshape(4, 4)
print("\n4x4 grid, 2x2 patches, first patch flattened:", patchify(tiny, 2).vectors[0].tolist())

# Logits to probabilities. Sigmoid treats the 21 classes independently
# (several objects can exceed the threshold at once); softmax forces one
# distribution over the classes.
logits = np.full(21, -3.0)
logits[vocab.detection_classes.index("grasper")] = 2.2
logits[vocab.detection_classes.index("hook")] = 1.4
logits[vocab.detection_classes.index("gallbladder")] = 0.3

for temperature in (1.0, 2.0):
    probs = probabilities_from_logits(logits, "sigmoid", temperature)
    detected = np.flatnonzero(threshold_detect(probs, 0.5))
    names = [vocab.detection_classes[i] for i in detected]
    print(f"\nT = {temperature}: detected {names}")
    for i in detected:
        print(f"    {vocab.detection_classes[i]:12s} p = {probs[i]:.3f}")

# The threshold is strict: a probability of exactly 0.5 is not a detection.
print("\nties at 0.5 detect nothing:", not threshold_detect(np.full(21, 0.5), 0.5).any())

# The pipeline squashes and thresholds a whole (frames, 21) matrix in one
# call each; threshold_detect returns a boolean mask of the same shape.
frames = np.stack([logits, -logits, np.zeros(21)])
mask = threshold_detect(probabilities_from_logits(frames, "sigmoid"), 0.5)
print("\ndetections per frame of a 3-frame matrix:", mask.sum(axis=1).tolist())

# Inverse-frequency class weights counter the long tail of rare classes.
frequencies = np.array([900, 50, 700, 30, 120, 90] + [60] * 15)
weights = class_weights(frequencies, epsilon=1e-6)
print("\nrarest class weight / most common class weight: "
      f"{max(weights.weights) / min(weights.weights):.1f}x")
print("weights sum:", f"{sum(weights.weights):.12f}")

# Weighted binary cross-entropy against the ground-truth bits.
truth = (np.asarray(logits) > 0).astype(float)
print("\nloss on confident-correct logits:", weighted_bce(truth, logits * 5, weights))
print("loss on inverted logits:         ", weighted_bce(truth, -logits * 5, weights))
