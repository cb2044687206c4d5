"""Sticker visualization feed (the paper's reference [11], reimplemented).

The demo "visualize[s] in the Sticker visualization tool" — a geo-temporal
topic-trend viewer (mTrend/Sticker at NICT).  Here the feed side of that
tool: processed tuples are binned into (time bucket, space cell, theme)
aggregates, queryable as trend series and renderable as ASCII heat maps —
the data a map front end would draw.
"""

from repro.sticker.feed import StickerFeed, TrendPoint
from repro.sticker.render import render_series

__all__ = ["StickerFeed", "TrendPoint", "render_series"]
