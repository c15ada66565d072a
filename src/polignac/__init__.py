"""Disjoint packings of prime-pattern difference sets with exact density bounds."""
