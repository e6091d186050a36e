"""Emotion-aware explanation generation for recommender systems."""
