"""Tour of the exact verification kernels on small arrays.

Builds a few arrays by hand, checks strength and Hamming distances, and
decides irredundancy by the minimal-distance criterion.
"""

from oakit import (
    MixedArray,
    distance_spectrum,
    guaranteed_deletion_budget,
    is_irredundant,
    serialize_array,
    trivial_moa,
    verify_strength,
)

# A full factorial over levels (7, 4, 2): 56 runs, strength 3 with index 1.
arr = trivial_moa((7, 4, 2))
report = verify_strength(arr, 3)
print(f"{arr}: strength 3 holds = {report.holds}, every triple appears {report.index}x")

# Mixed arrays mix levels; the profile uses exponent notation.
seed = MixedArray.from_rows(
    (3, 2, 2),
    [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [2, 0, 0], [2, 1, 1]],
)
print(f"\n{seed} over profile {seed.profile()}")
print("strength 2:", verify_strength(seed, 2).holds)
spectrum = distance_spectrum(seed)
print("distance spectrum:", spectrum.distances, "minimum:", spectrum.min_distance)

# Irredundancy at k means every (N-k)-column subarray keeps rows distinct,
# which is the same as minimal distance >= k + 1.
for k in (1, 2):
    report = is_irredundant(seed, k)
    print(f"irredundant at k={k}: {report.holds} (minimal distance {report.min_distance})")

# With minimal distance w, ANY w - k - 1 columns can be deleted safely.
print("\ndeletion budget at k=1:", guaranteed_deletion_budget(seed, 1))

# Arrays serialize to a canonical text form.
print("\nmoa v1 serialization:")
print(serialize_array(seed, strength=2))
