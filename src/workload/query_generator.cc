#include "workload/query_generator.h"

#include <cmath>
#include <memory>

#include "common/macros.h"
#include "common/random.h"

namespace sdb::workload {

namespace {

using geom::Point;
using geom::Rect;

std::string FamilyPrefix(QueryFamily family) {
  switch (family) {
    case QueryFamily::kUniform:
      return "U";
    case QueryFamily::kIdentical:
      return "ID";
    case QueryFamily::kSimilar:
      return "S";
    case QueryFamily::kIntensified:
      return "INT";
    case QueryFamily::kIndependent:
      return "IND";
  }
  return "?";
}

/// Samples one place index according to the family's selection rule.
size_t SamplePlace(Rng& rng, const WeightedSampler* intensified,
                   size_t place_count, QueryFamily family) {
  if (family == QueryFamily::kIntensified) {
    SDB_CHECK(intensified != nullptr);
    return intensified->Sample(rng);
  }
  return static_cast<size_t>(rng.NextBelow(place_count));
}

}  // namespace

std::string QuerySetName(QueryFamily family, int ex) {
  std::string name = FamilyPrefix(family);
  if (ex == 0) {
    name += "-P";
  } else {
    name += "-W";
    // ID-W maintains object sizes, so it carries no extent suffix in the
    // paper; every other family appends the reciprocal extent.
    if (family != QueryFamily::kIdentical) {
      name += '-';
      name += std::to_string(ex);
    }
  }
  return name;
}

QuerySet MakeQuerySet(const QuerySpec& spec, const Dataset& dataset,
                      const PlacesTable& places) {
  SDB_CHECK(spec.count > 0);
  SDB_CHECK(spec.ex >= 0);
  Rng rng(spec.seed);

  QuerySet set;
  set.family = spec.family;
  set.ex = spec.ex;
  set.name = QuerySetName(spec.family, spec.ex);
  set.queries.reserve(spec.count);

  const Rect space = dataset.data_space;
  const double window_w =
      spec.ex == 0 ? 0.0 : space.width() / static_cast<double>(spec.ex);
  const double window_h =
      spec.ex == 0 ? 0.0 : space.height() / static_cast<double>(spec.ex);

  // Intensified selection: probability proportional to sqrt(population).
  std::unique_ptr<WeightedSampler> intensified;
  if (spec.family == QueryFamily::kIntensified) {
    SDB_CHECK_MSG(!places.places.empty(),
                  "intensified queries need a places table");
    std::vector<double> weights;
    weights.reserve(places.places.size());
    for (const Place& place : places.places) {
      weights.push_back(std::sqrt(std::max(0.0, place.population)));
    }
    intensified = std::make_unique<WeightedSampler>(weights);
  }

  for (size_t i = 0; i < spec.count; ++i) {
    switch (spec.family) {
      case QueryFamily::kUniform: {
        // Uniform over the *whole* data space — deliberately including the
        // regions where no objects are stored.
        const Point p{rng.Uniform(space.xmin, space.xmax),
                      rng.Uniform(space.ymin, space.ymax)};
        set.queries.push_back(spec.ex == 0
                                  ? Rect::FromPoint(p)
                                  : Rect::Centered(p, window_w, window_h));
        break;
      }
      case QueryFamily::kIdentical: {
        const SpatialObject& object = dataset.objects[static_cast<size_t>(
            rng.NextBelow(dataset.objects.size()))];
        if (spec.ex == 0) {
          set.queries.push_back(Rect::FromPoint(object.rect.Center()));
        } else {
          // "For the window queries, the size of the objects is maintained."
          set.queries.push_back(object.rect);
        }
        break;
      }
      case QueryFamily::kSimilar:
      case QueryFamily::kIntensified:
      case QueryFamily::kIndependent: {
        SDB_CHECK_MSG(!places.places.empty(),
                      "place-based queries need a places table");
        const size_t index = SamplePlace(rng, intensified.get(),
                                         places.places.size(), spec.family);
        Point p = places.places[index].location;
        if (spec.family == QueryFamily::kIndependent) {
          // Flip the x-coordinate: a place in the west queries the east.
          p.x = space.xmin + space.xmax - p.x;
        }
        set.queries.push_back(spec.ex == 0
                                  ? Rect::FromPoint(p)
                                  : Rect::Centered(p, window_w, window_h));
        break;
      }
    }
  }
  return set;
}

QuerySet ConcatQuerySets(const std::vector<QuerySet>& sets) {
  SDB_CHECK(!sets.empty());
  QuerySet out;
  out.family = sets.front().family;
  out.ex = sets.front().ex;
  for (size_t i = 0; i < sets.size(); ++i) {
    if (i > 0) out.name += "+";
    out.name += sets[i].name;
    out.queries.insert(out.queries.end(), sets[i].queries.begin(),
                       sets[i].queries.end());
  }
  return out;
}

}  // namespace sdb::workload
