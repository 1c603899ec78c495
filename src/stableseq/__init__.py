"""stableseq: exact independent-set sequences of graphs, closed-form bounds
on counts and on the independence polynomial, hypercube estimate windows
with explicit error factors, sequence-shape checkers, and reproducible
percolation experiments."""
