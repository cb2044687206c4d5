"""ASCII renderings of Sticker feed contents (a map front end stand-in)."""

from __future__ import annotations

from repro.sticker.feed import StickerFeed

_SHADES = " .:-=+*#%@"


def render_series(
    feed: StickerFeed, theme: str, attribute: "str | None" = None, width: int = 50
) -> str:
    """A sparkline-style trend of one theme over time.

    Plots counts, or the mean of ``attribute`` when given.
    """
    series = feed.series(theme)
    if not series:
        return f"(no data for theme {theme!r})"
    values = [
        point.count if attribute is None else point.mean(attribute)
        for point in series
    ]
    finite = [v for v in values if v == v]  # drop NaNs
    if not finite:
        return f"(no numeric data for {attribute!r} under theme {theme!r})"
    low, high = min(finite), max(finite)
    span = (high - low) or 1.0
    lines = [f"trend {theme!r}" + (f" mean({attribute})" if attribute else " count")]
    for point, value in zip(series, values):
        if value != value:
            bar = "(nan)"
        else:
            bar = "#" * max(1, int((value - low) / span * width))
        label = f"{value:10.2f}" if value == value else "       nan"
        lines.append(f"  t={point.bucket_start:>10.0f} {label} {bar}")
    return "\n".join(lines)
