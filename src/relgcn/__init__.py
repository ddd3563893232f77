"""Link prediction over relational knowledge bases.

Learns first-order rules separately from positive and negative example
densities, turns satisfied-grounding counts into a dense feature matrix,
derives a pairwise-distance propagation structure, and trains a graph
convolutional network on it.
"""
