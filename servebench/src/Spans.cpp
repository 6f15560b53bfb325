//===- Spans.cpp - In-memory spans and counts of a traced run -------------===//

#include "Spans.h"

#include <cstdio>

using namespace servebench;

int Tracer::open(std::string Name) {
  Span S;
  S.Name = std::move(Name);
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Start = S.End = now();
  Spans.push_back(std::move(S));
  Stack.push_back(static_cast<int>(Spans.size()) - 1);
  return Stack.back();
}

void Tracer::close(int Id) {
  Spans[Id].End = now();
  Stack.pop_back();
}

std::map<std::string, double> Tracer::totals() const {
  std::map<std::string, double> T;
  for (const Span &S : Spans)
    T[S.Name] += S.End - S.Start;
  return T;
}

std::map<std::string, double> Tracer::selfTimes() const {
  std::vector<double> Self;
  for (const Span &S : Spans)
    Self.push_back(S.End - S.Start);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.End - S.Start;
  std::map<std::string, double> T;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    T[Spans[I].Name] += Self[I];
  return T;
}

double Tracer::topLevelSeconds() const {
  double Sum = 0.0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Sum += S.End - S.Start;
  return Sum;
}

namespace {

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string mapJson(const std::map<std::string, double> &M) {
  std::string J = "{";
  for (const auto &[K, V] : M)
    J += (J.size() > 1 ? ", \"" : "\"") + K + "\": " + num(V);
  return J + "}";
}

} // namespace

std::string Tracer::toJson() const {
  std::string J = "{\"spans\": [";
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    J += (I ? ",\n  " : "\n  ");
    J += "{\"id\": " + std::to_string(I) + ", \"name\": \"" + S.Name +
         "\", \"parent\": " + std::to_string(S.Parent) +
         ", \"start_s\": " + num(S.Start) + ", \"end_s\": " + num(S.End) + "}";
  }
  J += "],\n\"total_s\": " + mapJson(totals());
  J += ",\n\"self_s\": " + mapJson(selfTimes());
  J += ",\n\"counts\": " + mapJson(Counts) + "}";
  return J;
}
